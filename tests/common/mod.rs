//! The generated differential oracle of the façade suites.
//!
//! One deterministic generator over `Problem × SolveConfig` ([`Space`], a
//! `proptest::Strategy`) and one [`check`]: an accepted case runs bitwise
//! ≡ the scalar reference (hazard checker armed, canaries intact) and
//! reports the engine of the one engine model ([`engine_of`]) and tile
//! geometry exactly when it asked for a tiling; a rejected case returns
//! the `PlanError` the validation model ([`expected_error`]) names, with
//! a message, and never panics.
//!
//! The named equivalence tests are slices of that space ([`SLICES`]):
//! each draws its cases from a seed derived from its name, so every run
//! on every host replays the same draws (the host decides only which of
//! them it accepts, and on which engine). The categorical stratum
//! ([`categorical`]) is the exhaustive 9 kinds × 4 tilings × 5 methods ×
//! 2 threads product at one shape; the random draws put the extents, steps,
//! strides and blocks on the edges of the boundary phases of a temporal
//! sweep: `VL·s ± 1`, the eight-lane crossovers, the slab segment width,
//! `steps mod VL`.
//!
//! The generator never reads `TEMPORA_ENGINE`: every case forces its
//! selection (`Portable`, `Avx2` or `Auto`).

// Justification: each test binary including this module uses a different
// part of it (the façade suites the oracle, `fault_injection` only the
// state helpers).
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::{fnv1a, Strategy, TestRng};
use tempora::prelude::*;
use tempora::proto::SolveConfig;
use tempora::server::fresh_state;
use tempora::simd::arch::{avx2_available, avx512_available};
use tempora::stencil::{lcs_deps, validate_schedule, DepSet};

// ---------------------------------------------------------------------
// The reference and the comparison
// ---------------------------------------------------------------------

/// Advance a copy of `init` by `problem`'s time extent with the scalar
/// oracle of its kind (LCS: the table's length).
pub fn reference_state(problem: &Problem, init: &State) -> State {
    match (*problem, init) {
        (Problem::Heat1d { steps, coeffs, .. }, State::Grid1(g)) => {
            State::Grid1(reference::heat1d(g, coeffs, steps))
        }
        (Problem::Gs1d { steps, coeffs, .. }, State::Grid1(g)) => {
            State::Grid1(reference::gs1d(g, coeffs, steps))
        }
        (Problem::Heat2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::heat2d(g, coeffs, steps))
        }
        (Problem::Box2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::box2d(g, coeffs, steps))
        }
        (Problem::Gs2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::gs2d(g, coeffs, steps))
        }
        (Problem::Life { steps, rule, .. }, State::Grid2i(g)) => {
            State::Grid2i(reference::life(g, rule, steps))
        }
        (Problem::Heat3d { steps, coeffs, .. }, State::Grid3(g)) => {
            State::Grid3(reference::heat3d(g, coeffs, steps))
        }
        (Problem::Gs3d { steps, coeffs, .. }, State::Grid3(g)) => {
            State::Grid3(reference::gs3d(g, coeffs, steps))
        }
        (Problem::Lcs { .. }, State::Lcs(l)) => State::Lcs(LcsState {
            length: Some(reference::lcs_len(&l.a, &l.b)),
            ..l.clone()
        }),
        _ => unreachable!("state does not belong to the problem"),
    }
}

/// Interior equality of two states (LCS: equal lengths).
pub fn states_equal(a: &State, b: &State) -> bool {
    match (a, b) {
        (State::Grid1(x), State::Grid1(y)) => x.interior_eq(y),
        (State::Grid2(x), State::Grid2(y)) => x.interior_eq(y),
        (State::Grid2i(x), State::Grid2i(y)) => x.interior_eq(y),
        (State::Grid3(x), State::Grid3(y)) => x.interior_eq(y),
        (State::Lcs(x), State::Lcs(y)) => x.length == y.length,
        _ => false,
    }
}

/// True when no engine wrote into the alignment padding of `state`.
fn canaries_intact(state: &State) -> bool {
    match state {
        State::Grid1(g) => g.check_canaries().is_ok(),
        State::Grid2(g) => g.check_canaries().is_ok(),
        State::Grid2i(g) => g.check_canaries().is_ok(),
        State::Grid3(g) => g.check_canaries().is_ok(),
        State::Lcs(_) => true,
    }
}

// ---------------------------------------------------------------------
// The kinds and the models
// ---------------------------------------------------------------------

/// The nine problem kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Heat1d,
    Gs1d,
    Heat2d,
    Box2d,
    Gs2d,
    Life,
    Heat3d,
    Gs3d,
    Lcs,
}

/// Every kind, in `Problem` order.
pub const KINDS: [Kind; 9] = [
    Kind::Heat1d,
    Kind::Gs1d,
    Kind::Heat2d,
    Kind::Box2d,
    Kind::Gs2d,
    Kind::Life,
    Kind::Heat3d,
    Kind::Gs3d,
    Kind::Lcs,
];

impl Kind {
    pub fn of(problem: &Problem) -> Kind {
        match problem {
            Problem::Heat1d { .. } => Kind::Heat1d,
            Problem::Gs1d { .. } => Kind::Gs1d,
            Problem::Heat2d { .. } => Kind::Heat2d,
            Problem::Box2d { .. } => Kind::Box2d,
            Problem::Gs2d { .. } => Kind::Gs2d,
            Problem::Life { .. } => Kind::Life,
            Problem::Heat3d { .. } => Kind::Heat3d,
            Problem::Gs3d { .. } => Kind::Gs3d,
            Problem::Lcs { .. } => Kind::Lcs,
            _ => unreachable!("a tenth kind needs a row in the oracle"),
        }
    }

    /// Grid dimensions (0 for LCS).
    fn dims(self) -> usize {
        match self {
            Kind::Heat1d | Kind::Gs1d => 1,
            Kind::Heat2d | Kind::Box2d | Kind::Gs2d | Kind::Life => 2,
            Kind::Heat3d | Kind::Gs3d => 3,
            Kind::Lcs => 0,
        }
    }

    fn is_gs(self) -> bool {
        matches!(self, Kind::Gs1d | Kind::Gs2d | Kind::Gs3d)
    }

    /// The tiling built for this kind.
    fn native_tiling(self) -> Tile {
        match self {
            Kind::Lcs => Tile::Rect,
            _ if self.is_gs() => Tile::Skew,
            _ => Tile::Ghost,
        }
    }

    /// The lane counts its temporal sweeps run at on some engine.
    fn lanes(self) -> &'static [usize] {
        match self {
            Kind::Heat1d | Kind::Gs1d | Kind::Heat2d | Kind::Box2d | Kind::Gs2d => &[4, 8],
            Kind::Life => &[8],
            Kind::Heat3d | Kind::Gs3d => &[4],
            Kind::Lcs => &[8, 16],
        }
    }

    /// The lane count of `engine`'s temporal sweep: the widest on AVX-512.
    fn vl(self, engine: Engine) -> usize {
        let lanes = self.lanes();
        lanes[(engine == Engine::Avx512) as usize * (lanes.len() - 1)]
    }

    /// The outer extent from which `Select::Auto` widens (LCS: `B`'s
    /// length): the crossovers `repro ablate-vl` measured, written out so
    /// that a change to them fails here.
    fn wide_min(self) -> Option<usize> {
        match self {
            Kind::Heat1d => Some(4096),
            Kind::Gs1d | Kind::Lcs => Some(1024),
            Kind::Heat2d | Kind::Box2d => Some(32),
            Kind::Gs2d => Some(128),
            Kind::Life | Kind::Heat3d | Kind::Gs3d => None,
        }
    }

    /// The stride a plan runs when none is given.
    fn default_stride(self, engine: Engine) -> usize {
        match (self, engine) {
            (Kind::Heat1d, Engine::Avx512) => 13,
            (Kind::Heat1d, _) => 10,
            (Kind::Gs1d, _) => 7,
            _ => 2,
        }
    }

    /// The widest stride the kind's sweep holds: the 1-D ring's 16.
    fn max_stride(self) -> usize {
        if self.dims() == 1 {
            16
        } else {
            usize::MAX
        }
    }

    /// The dependence set the temporal stride must respect.
    fn deps(self) -> DepSet {
        match self {
            Kind::Heat1d => Heat1dCoeffs::deps(),
            Kind::Gs1d => Gs1dCoeffs::deps(),
            Kind::Heat2d => Heat2dCoeffs::deps(),
            Kind::Box2d => Box2dCoeffs::deps(),
            Kind::Gs2d => Gs2dCoeffs::deps(),
            Kind::Life => LifeRule::deps(),
            Kind::Heat3d => Heat3dCoeffs::deps(),
            Kind::Gs3d => Gs3dCoeffs::deps(),
            Kind::Lcs => lcs_deps(),
        }
    }

    /// The strides the generator draws as accepted: every one the 1-D
    /// ring holds, the first few of the slab kinds, and LCS's past any cap.
    fn accepted_strides(self) -> Vec<usize> {
        let min = self.deps().min_stride();
        match self {
            Kind::Heat1d | Kind::Gs1d => (min..=self.max_stride()).collect(),
            Kind::Lcs => (min..=4).chain([17, 33]).collect(),
            _ => (min..=5).collect(),
        }
    }

    /// The lane count a tile height must be a multiple of.
    fn tile_vl(self) -> usize {
        self.lanes()[0]
    }
}

/// The engine a case's `Report` names: `None` for the spatial methods;
/// for the temporal one the selection resolved by capability, widened by
/// `Select::Auto` to eight lanes (LCS: sixteen) where the kind has a
/// wider sweep, the outer extent reaches its crossover and
/// [`wider_pays`]; LCS resolves portable where no eight-lane band fits.
pub fn engine_of(problem: &Problem, config: &SolveConfig) -> Option<Engine> {
    (config.method == Method::Temporal).then(|| temporal_engine(problem, config))
}

/// The engine a temporal plan of `problem` under `config` resolves.
fn temporal_engine(problem: &Problem, config: &SolveConfig) -> Engine {
    let sel = config.select;
    let narrow = |fits: bool| match sel {
        Select::Portable => Engine::Portable,
        _ if fits && avx2_available() => Engine::Avx2,
        _ => Engine::Portable,
    };
    let kind = Kind::of(problem);
    let wide = match *problem {
        Problem::Lcs { la, lb } => {
            let s = config.stride.unwrap_or(2);
            let yblock = match config.tiling {
                Tiling::LcsRect { yblock, .. } => yblock,
                _ => lb,
            }
            .max(1);
            let last = match lb % yblock {
                0 => yblock,
                r => r,
            };
            let fits = |vl: usize| la >= vl && yblock.min(lb).min(last) > vl.saturating_mul(s);
            if !fits(8) {
                return narrow(false);
            }
            kind.wide_min().is_some_and(|min| lb >= min) && wider_pays(la, 8) && fits(16)
        }
        _ => {
            let nx = problem.extents()[0];
            kind.wide_min().is_some_and(|min| nx >= min) && wider_pays(problem.steps(), 4)
        }
    };
    match narrow(true) {
        Engine::Avx2 if sel == Select::Auto && wide && avx512_available() => Engine::Avx512,
        engine => engine,
    }
}

/// True when `levels` fill a sweep at `2·vl` lanes and leave it no more
/// scalar levels than `vl` lanes would.
fn wider_pays(levels: usize, vl: usize) -> bool {
    levels >= 2 * vl && levels % (2 * vl) <= levels % vl
}

/// The `PlanError` variant a case's build returns, in the order
/// `PlanBuilder::build` validates; `None` for a case it accepts.
pub fn expected_error(problem: &Problem, config: &SolveConfig) -> Option<&'static str> {
    let kind = Kind::of(problem);
    let (method, tiling) = (config.method, config.tiling);
    let lcs = kind == Kind::Lcs;
    if config.threads == 0 {
        return Some("ZeroThreads");
    }
    if tiling == Tiling::None && config.threads > 1 {
        return Some("ThreadsRequireTiling");
    }
    if problem.extents().contains(&0) && !lcs {
        return Some("EmptyDomain");
    }
    if config.select == Select::Avx2 && !avx2_available() {
        return Some("Avx2Unavailable");
    }
    if config.stride == Some(0) {
        return Some("ZeroStride");
    }
    let baseline = matches!(method, Method::Reorg | Method::Dlt);
    if (method == Method::Multiload && (kind.is_gs() || lcs)) || (baseline && kind != Kind::Heat1d)
    {
        return Some("MethodUnsupported");
    }
    match tiling {
        Tiling::None => {}
        Tiling::Ghost { block, height } | Tiling::Skew { block, height } => {
            let skew = matches!(tiling, Tiling::Skew { .. });
            if skew != kind.is_gs() || lcs {
                return Some("TilingUnsupported");
            }
            if baseline {
                return Some("MethodUnsupported");
            }
            if block == 0 {
                return Some("ZeroTileExtent");
            }
            if height < kind.tile_vl() || height % kind.tile_vl() != 0 {
                return Some("BadTileHeight");
            }
        }
        Tiling::LcsRect { xblock, yblock } => {
            if !lcs {
                return Some("TilingUnsupported");
            }
            if xblock == 0 || yblock == 0 {
                return Some("ZeroTileExtent");
            }
        }
    }
    if lcs || (kind == Kind::Heat1d && baseline) {
        return None;
    }
    let temporal = method == Method::Temporal;
    let s =
        (config.stride).unwrap_or_else(|| kind.default_stride(temporal_engine(problem, config)));
    if temporal && !kind.deps().stride_legal(s) {
        return Some("StrideTooSmall");
    }
    if temporal && s > kind.max_stride() {
        return Some("StrideTooLarge");
    }
    if let Tiling::Skew { block, height } = tiling {
        let s_eff = if temporal { s } else { 0 };
        if block < height.saturating_add(4usize.saturating_mul(s_eff.saturating_add(1))) {
            return Some("BlockTooNarrow");
        }
    }
    None
}

/// Units (2-D: columns, 3-D: rows) per segment of a slab sweep's steady
/// state at `vl` lanes and stride `s` on an L1d of `l1d` bytes: two thirds
/// of it over the ring's bytes per unit (`tempora_core::slab::segment_width`),
/// restated here so the generator can put inner extents on either side of
/// it. The generator draws `l1d` from the common sizes, not the host's, so
/// that a draw is the same case on every host.
fn segment_width(kind: Kind, vl: usize, s: usize, nz: usize, l1d: usize) -> usize {
    let elem = if kind == Kind::Life { 4 } else { 8 };
    let unit_elems = if kind.dims() == 3 { nz + 2 } else { 1 };
    let slabs = s.saturating_add(2 + 2 * kind.is_gs() as usize);
    let unit = slabs.saturating_mul(vl * unit_elems * elem);
    (2 * l1d / 3 / unit).max(1)
}

// ---------------------------------------------------------------------
// The case space
// ---------------------------------------------------------------------

/// One generated case: a problem, a solver configuration and the seed of
/// its initial state (`tempora::server::fresh_state`), with the edge
/// classes the generator drew it from.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub problem: Problem,
    pub config: SolveConfig,
    pub seed: u64,
    pub tags: Tags,
}

impl Case {
    /// A case written out rather than drawn.
    pub fn fixed(problem: Problem, config: SolveConfig) -> Case {
        let (seed, tags) = (11, Tags::default());
        Case {
            problem,
            config,
            seed,
            tags,
        }
    }
}

/// The classes one case was drawn from (what it was drawn as, where a
/// class does not apply to the kind: `Free`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tags {
    pub outer: Outer,
    pub inner: Inner,
    pub steps: Steps,
    pub stride: Stride,
    pub block: Block,
}

/// The outer extent (LCS: `B`'s length, the line its bands sweep).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outer {
    /// Zero: an empty grid (rejected), an empty `B` (accepted).
    Empty,
    /// One to three slabs.
    Tiny,
    /// `VL·s − 1 ..= VL·s + 2` at one of the kind's lane counts.
    VlS,
    /// The eight-lane crossover `± 1` ([`Kind::wide_min`]).
    WideMin,
    /// `VL·s + 1 ..= 2·VL·s + 1` at one of the kind's lane counts: a 1-D
    /// sweep's masked front and back meet inside one part.
    Masked,
    #[default]
    Free,
}

/// The inner extents of the 2-D and 3-D kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Inner {
    /// One unit short of the slab segment width to two past it.
    Segment,
    #[default]
    Free,
}

/// The time extent (LCS: `A`'s length, the rows its bands stack).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Steps {
    Zero,
    /// Fewer than one of the kind's lane counts.
    BelowVl,
    /// One to three times 4, 8 or 16, `± 1`.
    NearMultiple,
    #[default]
    Free,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stride {
    /// None given: the kind's default at the engine it resolves.
    #[default]
    Default,
    /// One of [`Kind::accepted_strides`].
    Accepted,
    /// Zero, below the dependence bound, past the 1-D ring.
    Rejected,
    /// `1 << 33` and past: `VL·s` saturates.
    Huge,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Block {
    /// `VL·s − 1 ..= VL·s + 1` (skew: its `height + 4·s + 4` bound).
    VlS,
    /// The whole outer extent: one chunk.
    Whole,
    /// A half, third or quarter of it.
    Cut,
    #[default]
    Free,
    /// A zero extent or a bad height (rejected), or LCS blocks far past
    /// the table (clamped).
    Bad,
}

/// The tiling asked for: `Native` is the kind's own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tile {
    None,
    Native,
    Ghost,
    Skew,
    Rect,
}

/// A region of the case space: the classes a draw picks from, uniformly
/// (list one twice to weight it).
#[derive(Clone, Copy, Debug)]
pub struct Space {
    pub kinds: &'static [Kind],
    pub methods: &'static [Method],
    pub tiles: &'static [Tile],
    pub selects: &'static [Select],
    pub threads: (usize, usize),
    pub strides: &'static [Stride],
    pub outer: &'static [Outer],
    pub inner: &'static [Inner],
    pub steps: &'static [Steps],
    pub blocks: &'static [Block],
}

const ALL_METHODS: &[Method] = &[
    // Twice, so drawn twice as often; `[1..]` is every method once.
    Method::Temporal,
    Method::Temporal,
    Method::Multiload,
    Method::Reorg,
    Method::Dlt,
    Method::Scalar,
];

impl Space {
    /// The whole space, rejected classes included.
    pub const ALL: Space = Space {
        kinds: &KINDS,
        methods: ALL_METHODS,
        tiles: &[
            Tile::None,
            Tile::Native,
            Tile::Native,
            Tile::Ghost,
            Tile::Skew,
            Tile::Rect,
        ],
        selects: &[Select::Portable, Select::Avx2, Select::Auto],
        threads: (1, 8),
        strides: &[
            Stride::Default,
            Stride::Accepted,
            Stride::Accepted,
            Stride::Rejected,
            Stride::Huge,
        ],
        outer: &[
            Outer::Empty,
            Outer::Tiny,
            Outer::VlS,
            Outer::VlS,
            Outer::WideMin,
            Outer::Free,
        ],
        inner: &[Inner::Segment, Inner::Free, Inner::Free],
        steps: &[
            Steps::Zero,
            Steps::BelowVl,
            Steps::NearMultiple,
            Steps::NearMultiple,
            Steps::Free,
        ],
        blocks: &[
            Block::VlS,
            Block::VlS,
            Block::Whole,
            Block::Cut,
            Block::Free,
            Block::Bad,
        ],
    };

    /// Accepted draws only: the kinds' own tilings, legal strides,
    /// extents and blocks; every method, selection and thread count.
    pub const LEGAL: Space = Space {
        methods: &[Method::Temporal, Method::Temporal, Method::Scalar],
        tiles: &[Tile::None, Tile::Native],
        strides: &[Stride::Default, Stride::Accepted],
        outer: &[
            Outer::Tiny,
            Outer::VlS,
            Outer::VlS,
            Outer::WideMin,
            Outer::Free,
        ],
        steps: &[
            Steps::BelowVl,
            Steps::NearMultiple,
            Steps::NearMultiple,
            Steps::Free,
        ],
        blocks: &[Block::VlS, Block::Whole, Block::Cut, Block::Free],
        ..Space::ALL
    };
}

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[(rng.next_u64() % xs.len() as u64) as usize]
}

fn int(rng: &mut TestRng, lo: usize, hi: usize) -> usize {
    (lo..=hi).sample(rng)
}

fn real(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    (lo..hi).sample(rng)
}

/// `base + δ` for `δ ∈ lo..=hi`, at least 1; `None` past any grid a test
/// can run (a saturated `VL·s`).
fn around(rng: &mut TestRng, base: usize, lo: isize, hi: isize) -> Option<usize> {
    let d = (lo..=hi).sample(rng);
    (base < 1 << 16).then(|| base.saturating_add_signed(d).max(1))
}

impl Strategy for Space {
    type Value = Case;

    fn sample(&self, rng: &mut TestRng) -> Case {
        let kind = pick(rng, self.kinds);
        let method = pick(rng, self.methods);
        let select = pick(rng, self.selects);
        let tile = match pick(rng, self.tiles) {
            Tile::Native => kind.native_tiling(),
            tile => tile,
        };
        // Rejected classes (a zero extent, thread count, stride or block)
        // only where the space draws them.
        let rejects = self.outer.contains(&Outer::Empty);
        let threads = match rng.next_u64() % 32 {
            0 if rejects => 0,
            1..=4 if rejects => int(rng, self.threads.0, self.threads.1),
            _ if tile == Tile::None => 1,
            _ => int(rng, self.threads.0, self.threads.1),
        };
        let pin = rng.next_u64().is_multiple_of(4);
        let lanes = pick(rng, kind.lanes());
        // The engine whose default stride goes with `lanes`.
        let engine = if lanes > 4 {
            Engine::Avx512
        } else {
            Engine::Avx2
        };

        let mut tags = Tags {
            outer: pick(rng, self.outer),
            inner: pick(rng, self.inner),
            steps: pick(rng, self.steps),
            stride: pick(rng, self.strides),
            block: pick(rng, self.blocks),
        };
        let min = kind.deps().min_stride();
        let stride = match tags.stride {
            Stride::Default => None,
            Stride::Accepted => Some(pick(rng, &kind.accepted_strides())),
            Stride::Rejected => Some(match rng.next_u64() % 3 {
                0 => 0,
                1 if min > 1 => min - 1,
                _ if kind.max_stride() < usize::MAX => int(rng, kind.max_stride() + 1, 40),
                _ => 0,
            }),
            Stride::Huge => Some(pick(rng, &[1 << 33, usize::MAX / 4 + 2, usize::MAX])),
        };
        let s = stride.unwrap_or_else(|| kind.default_stride(engine)).max(1);
        let s_eff = if method == Method::Temporal { s } else { 0 };

        // The time extent (LCS: rows of `A`).
        let steps = match tags.steps {
            Steps::Zero => 0,
            Steps::BelowVl => int(rng, 1, lanes - 1),
            Steps::NearMultiple => {
                let m = pick(rng, &[4, 8, 16]) * int(rng, 1, 3);
                m.saturating_add_signed((-1isize..=1).sample(rng))
            }
            Steps::Free if kind == Kind::Lcs => int(rng, 1, 120),
            Steps::Free => int(rng, 1, 24),
        };
        // The outer extent (LCS: columns of `B`).
        let free_outer = |rng: &mut TestRng| match kind.dims() {
            0 => int(rng, 1, 300),
            1 => int(rng, 4, 700),
            2 => int(rng, 4, 100),
            _ => int(rng, 4, 64),
        };
        let outer = match tags.outer {
            Outer::Empty => Some(0),
            Outer::Tiny => Some(int(rng, 1, 3)),
            Outer::VlS => around(rng, lanes.saturating_mul(s), -1, 2),
            Outer::WideMin => kind.wide_min().and_then(|m| around(rng, m, -1, 1)),
            Outer::Masked => {
                let reach = lanes.saturating_mul(s);
                (reach < 1 << 16).then(|| int(rng, reach + 1, 2 * reach + 1))
            }
            Outer::Free => None,
        };
        let outer = outer.unwrap_or_else(|| {
            tags.outer = Outer::Free;
            free_outer(rng)
        });
        // The inner extents, `[ny, nz]`, around the segment width of a 32
        // or 48 KiB L1d.
        let l1d = |rng: &mut TestRng| pick(rng, &[32 << 10, 48 << 10]);
        let inner = match (kind.dims(), tags.inner) {
            (2, Inner::Segment) => {
                let w = segment_width(kind, lanes, s, 1, l1d(rng));
                around(rng, w, -1, 2).map(|ny| [ny, 1])
            }
            (3, Inner::Segment) => {
                let nz = int(rng, 3, 40);
                let w = segment_width(kind, lanes, s, nz, l1d(rng));
                around(rng, w, -1, 2).map(|ny| [ny, nz])
            }
            _ => None,
        };
        let inner = inner.unwrap_or_else(|| {
            tags.inner = Inner::Free;
            match kind.dims() {
                2 => [int(rng, 1, 40), 1],
                _ => [int(rng, 1, 12), int(rng, 1, 12)],
            }
        });

        let tiling = match tile {
            Tile::None | Tile::Native => {
                tags.block = Block::Free;
                Tiling::None
            }
            Tile::Ghost | Tile::Skew => {
                let vl = kind.tile_vl();
                let bad_height = tags.block == Block::Bad && rng.next_u64().is_multiple_of(2);
                let height = if bad_height {
                    pick(rng, &[0, 6, vl / 2, vl + 2])
                } else {
                    vl * int(rng, 1, 2)
                };
                let bound = if tile == Tile::Skew {
                    height.saturating_add(4usize.saturating_mul(s_eff.saturating_add(1)))
                } else {
                    lanes.saturating_mul(s)
                };
                let block = match tags.block {
                    Block::VlS => around(rng, bound, -1, 1),
                    Block::Whole => Some(outer + int(rng, 0, 2)),
                    // Skew: into chunks its bound admits, where any does.
                    Block::Cut if tile == Tile::Skew => {
                        let most = (outer / bound.max(1)).clamp(2, 4);
                        Some(outer.div_ceil(int(rng, 2, most)).max(1))
                    }
                    Block::Cut => Some(outer.div_ceil(int(rng, 2, 4)).max(1)),
                    Block::Bad if bad_height => Some(int(rng, 1, 64)),
                    Block::Bad => Some(0),
                    Block::Free => None,
                };
                let block = block.unwrap_or_else(|| {
                    tags.block = Block::Free;
                    int(rng, 1, 64)
                });
                if tile == Tile::Skew {
                    Tiling::Skew { block, height }
                } else {
                    Tiling::Ghost { block, height }
                }
            }
            Tile::Rect => {
                let la = if kind == Kind::Lcs { steps } else { outer };
                let mut xblock = int(rng, 1, la + 8);
                let bad = [0, 1 << 32, usize::MAX];
                let yblock = match tags.block {
                    Block::VlS => around(rng, lanes.saturating_mul(s), -1, 2),
                    Block::Whole => Some(outer.max(1)),
                    Block::Cut => Some(outer.div_ceil(int(rng, 2, 4)).max(1)),
                    Block::Free => None,
                    Block::Bad if rng.next_u64().is_multiple_of(2) => Some(pick(rng, &bad)),
                    Block::Bad => {
                        xblock = pick(rng, &bad);
                        Some(int(rng, 1, 128))
                    }
                };
                let yblock = yblock.unwrap_or_else(|| {
                    tags.block = Block::Free;
                    int(rng, 1, 128)
                });
                Tiling::LcsRect { xblock, yblock }
            }
        };

        let problem = problem(rng, kind, outer, inner, steps);
        Case {
            problem,
            config: SolveConfig {
                method,
                tiling,
                select,
                threads,
                stride,
                pin,
            },
            seed: rng.next_u64(),
            tags,
        }
    }
}

/// A `kind` problem of the given extents, with drawn coefficients (each
/// update a convex-ish combination, so no run overflows), rule and
/// boundary.
fn problem(rng: &mut TestRng, kind: Kind, n: usize, [ny, nz]: [usize; 2], t: usize) -> Problem {
    let mut c = |k: usize| real(rng, 0.02, 1.2 / k as f64);
    let [c0, c1, c2, c3, c4, c5, c6] = [c(3), c(3), c(3), c(5), c(5), c(7), c(7)];
    let box9 = [[c5, c6, c5], [c3 / 1.3, c4 / 1.3, c6], [c6, c5, c5]];
    let rule = LifeRule {
        birth: (rng.next_u64() & 0x1ff) as u16,
        survive: (rng.next_u64() & 0x1ff) as u16,
    };
    let mut p = match kind {
        Kind::Heat1d => Problem::heat1d(n, t, Heat1dCoeffs::new(c0, c1, c2)),
        Kind::Gs1d => Problem::gs1d(n, t, Gs1dCoeffs::new(c0, c1, c2)),
        Kind::Heat2d => Problem::heat2d(n, ny, t, Heat2dCoeffs::new(c3, c4, c0 / 1.6, c3, c4)),
        Kind::Box2d => Problem::box2d(n, ny, t, Box2dCoeffs::new(box9)),
        Kind::Gs2d => Problem::gs2d(n, ny, t, Gs2dCoeffs::new(c3, c4, c0 / 1.6, c4, c3)),
        Kind::Life => Problem::life(n, ny, t, rule),
        Kind::Heat3d => {
            Problem::heat3d(n, ny, nz, t, Heat3dCoeffs::new(c5, c6, c5, c3, c6, c5, c6))
        }
        Kind::Gs3d => Problem::gs3d(n, ny, nz, t, Gs3dCoeffs::new(c6, c5, c6, c4, c5, c6, c5)),
        Kind::Lcs => Problem::lcs(t, n),
    };
    let bits = rng.next_u64();
    match &mut p {
        Problem::Life { boundary, .. } => *boundary = Boundary::Dirichlet((bits & 1) as i32),
        Problem::Heat1d { boundary, .. }
        | Problem::Gs1d { boundary, .. }
        | Problem::Heat2d { boundary, .. }
        | Problem::Box2d { boundary, .. }
        | Problem::Gs2d { boundary, .. }
        | Problem::Heat3d { boundary, .. }
        | Problem::Gs3d { boundary, .. } => {
            *boundary = Boundary::Dirichlet((bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        }
        _ => {}
    }
    p
}

/// The first stratum: all nine kinds × all four tilings × all five
/// methods × threads {1, 2}, `Select::Auto` at the default stride, at one
/// shape whose outer extent (150) neither block divides and whose time
/// extent (19) is no multiple of the band height.
pub fn categorical() -> Vec<Case> {
    let (n, steps) = (150, 19);
    let problems = [
        Problem::heat1d(n, steps, Heat1dCoeffs::classic(0.24)),
        Problem::gs1d(n, steps, Gs1dCoeffs::classic(0.22)),
        Problem::heat2d(n, 11, steps, Heat2dCoeffs::classic(0.11)),
        Problem::box2d(n, 11, steps, Box2dCoeffs::smooth(0.07)),
        Problem::gs2d(n, 11, steps, Gs2dCoeffs::classic(0.17)),
        Problem::life(n, 11, steps, LifeRule::b2s23()),
        Problem::heat3d(n, 5, 6, steps, Heat3dCoeffs::classic(0.09)),
        Problem::gs3d(n, 5, 6, steps, Gs3dCoeffs::classic(0.12)),
        Problem::lcs(n, 90),
    ];
    // Height 8 suits both lane counts; the skew block clears the
    // disjointness bound at the widest default stride (8 + 4·7 + 4).
    let tilings = [
        Tiling::None,
        Tiling::Ghost {
            block: 40,
            height: 8,
        },
        Tiling::Skew {
            block: 44,
            height: 8,
        },
        Tiling::LcsRect {
            xblock: 40,
            yblock: 32,
        },
    ];
    let methods = &ALL_METHODS[1..];
    let mut cases = vec![];
    for problem in problems {
        for tiling in tilings {
            for &method in methods {
                for threads in [1, 2] {
                    let config = SolveConfig {
                        method,
                        tiling,
                        threads,
                        ..SolveConfig::default()
                    };
                    cases.push(Case::fixed(problem, config));
                }
            }
        }
    }
    cases
}

/// The draws of `space` from the seed of `name`, one generator per draw.
fn draw<'a>(name: &str, space: &'a Space) -> impl Iterator<Item = Case> + 'a {
    let base = fnv1a(name);
    let seed = move |i: u64| base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0u64..).map(move |i| space.sample(&mut TestRng::new(seed(i))))
}

/// The first `n` draws of `space` from the seed of `name`.
pub fn draws(name: &str, n: usize, space: &Space) -> Vec<Case> {
    draw(name, space).take(n).collect()
}

/// The first `n` draws of `space` that the validation model accepts.
pub fn accepted_draws(name: &str, n: usize, space: &Space) -> Vec<Case> {
    let accepted = |c: &Case| expected_error(&c.problem, &c.config).is_none();
    draw(name, space).filter(accepted).take(n).collect()
}

// ---------------------------------------------------------------------
// The check
// ---------------------------------------------------------------------

/// Build and run one case against the models; true when it was accepted.
/// The test profile keeps debug assertions on, and with them the
/// pipelined sweeps' hazard checker.
///
/// # Panics
/// On any disagreement: a build that panics, a rejection the model does
/// not name (or one without a message), an acceptance it does not
/// expect, a result other than the reference's, a canary overwritten,
/// another engine than [`engine_of`], tile geometry reported for an
/// untiled plan or missing for a tiled one.
pub fn check(case: &Case) -> bool {
    let (problem, config) = (&case.problem, &case.config);
    let builder = config.plan_builder();
    let built = catch_unwind(AssertUnwindSafe(|| builder.build(problem)))
        .unwrap_or_else(|_| panic!("{case:?}: build panicked"));
    let want = expected_error(problem, config);
    let mut plan = match (built, want) {
        (Err(e), Some(want)) => {
            assert!(!e.to_string().is_empty(), "{case:?}: {e:?} has no message");
            assert!(
                format!("{e:?}").starts_with(want),
                "{case:?}: want {want}, got {e:?}"
            );
            check_stride_bound(case);
            return false;
        }
        (Err(e), None) => panic!("{case:?}: rejected: {e}"),
        (Ok(_), Some(want)) => panic!("{case:?}: accepted, want {want}"),
        (Ok(plan), None) => plan,
    };
    let init = fresh_state(problem, case.seed);
    let gold = reference_state(problem, &init);
    let mut state = init;
    let report = plan
        .run(&mut state)
        .unwrap_or_else(|e| panic!("{case:?}: {e}"));
    assert!(states_equal(&state, &gold), "{case:?}: not the reference");
    assert!(canaries_intact(&state), "{case:?}: a canary changed");
    if let State::Lcs(l) = &gold {
        assert_eq!(report.lcs_length, l.length, "{case:?}");
    }
    assert_eq!(report.engine, engine_of(problem, config), "{case:?}");
    let tiled = config.tiling != Tiling::None;
    assert_eq!(report.tiles.is_some(), tiled, "{case:?}");
    // LCS blocks are clamped to the table; where a band engine resolved,
    // the tasks are bands `vl` rows deep, not scalar rows.
    if let (&Problem::Lcs { la, lb }, Some(t)) = (problem, report.tiles) {
        let (block, height) = (t.block, t.height);
        assert!(block <= la.max(1) && height <= lb.max(1), "{case:?}: {t:?}");
        if let Some(e) = report.engine.filter(|&e| e != Engine::Portable) {
            assert_eq!(block, Kind::Lcs.vl(e), "{case:?}: no bands ran");
        }
    }
    assert_eq!(report.threads, config.threads, "{case:?}");
    assert_eq!(report.steps, problem.steps(), "{case:?}");
    check_stride_bound(case);
    true
}

/// The dependence analysis and the schedule interpreter agree on a
/// temporal case's stride, so the plan (which accepts exactly the
/// dependence-legal strides, [`expected_error`]) accepts exactly the ones
/// `validate_schedule` proves safe.
fn check_stride_bound(case: &Case) {
    let (kind, config) = (Kind::of(&case.problem), &case.config);
    let Some(s) = config.stride.filter(|s| (1..=64).contains(s)) else {
        return;
    };
    let Some(engine) = engine_of(&case.problem, config) else {
        return;
    };
    let deps = kind.deps();
    let validated = validate_schedule(&deps, kind.vl(engine), s, 96).is_ok();
    assert_eq!(deps.stride_legal(s), validated, "{case:?}: {}", deps.name);
}

/// Check every case of `cases`; the number accepted.
pub fn check_all(cases: &[Case]) -> usize {
    cases.iter().filter(|c| check(c)).count()
}

// ---------------------------------------------------------------------
// The slices the named tests check
// ---------------------------------------------------------------------

/// One named test's region of the case space: `n` draws of a space.
pub struct Slice {
    pub name: &'static str,
    pub n: usize,
    pub space: Space,
}

/// The cases of the slice named `name`.
pub fn cases_of(name: &str) -> Vec<Case> {
    let slice = SLICES
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no slice is named {name}"));
    draws(name, slice.n, &slice.space)
}

/// Check the slice named `name`; the number of its cases accepted.
pub fn check_slice(name: &str) -> usize {
    check_all(&cases_of(name))
}

/// The slice table: `name: n, BASE { field: classes, .. };` draws `n`
/// cases of `Space::BASE` with those fields narrowed.
macro_rules! slices {
    ($($name:ident: $n:literal, $base:ident { $($field:ident: $value:expr),* };)*) => {
        pub const SLICES: &[Slice] = &[$(Slice {
            name: stringify!($name),
            n: $n,
            space: Space { $($field: $value,)* ..Space::$base },
        }),*];
    };
}

const GRIDS: &[Kind] = &[
    Kind::Heat1d,
    Kind::Gs1d,
    Kind::Heat2d,
    Kind::Box2d,
    Kind::Gs2d,
    Kind::Life,
    Kind::Heat3d,
    Kind::Gs3d,
];
const TILED: &[Tile] = &[Tile::Native];
const TEMPORAL: &[Method] = &[Method::Temporal];
const GS: &[Kind] = &[Kind::Gs1d, Kind::Gs2d, Kind::Gs3d];
const JACOBI: &[Kind] = &[
    Kind::Heat1d,
    Kind::Heat2d,
    Kind::Box2d,
    Kind::Life,
    Kind::Heat3d,
];

// The named tests' slices. Each keeps the name of the hand-written table
// it replaced and draws the region its name describes.
slices! {
    // tests/equivalence.rs
    heat1d_all_schemes_agree: 150, ALL { kinds: &[Kind::Heat1d] };
    heat2d_and_box2d_all_schemes_agree: 150, ALL { kinds: &[Kind::Heat2d, Kind::Box2d] };
    life_all_schemes_agree: 160, ALL { kinds: &[Kind::Life] };
    heat3d_all_schemes_agree: 150, ALL { kinds: &[Kind::Heat3d] };
    gauss_seidel_all_schemes_agree: 400, ALL { kinds: GS };
    lcs_all_schemes_agree: 200, ALL { kinds: &[Kind::Lcs] };
    parallel_results_are_deterministic_across_thread_counts: 60,
        LEGAL { tiles: TILED, threads: (2, 8) };
    boundary_dominated_shapes_match_reference_bitwise: 60, LEGAL {
        methods: TEMPORAL,
        selects: &[Select::Portable, Select::Avx2],
        outer: &[Outer::Tiny, Outer::VlS],
        steps: &[Steps::Zero, Steps::BelowVl, Steps::NearMultiple],
        blocks: &[Block::VlS]
    };
    avx2_engines_match_scalar_oracles_bitwise: 40,
        LEGAL { methods: TEMPORAL, selects: &[Select::Avx2] };
    forced_portable_and_avx2_selections_agree_bitwise: 40,
        LEGAL { methods: TEMPORAL, tiles: &[Tile::None] };
    tiled_forced_engines_agree_bitwise: 120, LEGAL { methods: TEMPORAL, tiles: TILED };
    life_forced_engines_agree_bitwise: 30, LEGAL { kinds: &[Kind::Life], methods: TEMPORAL };
    lcs_forced_engines_agree: 60, LEGAL { kinds: &[Kind::Lcs], methods: TEMPORAL };
    canaries_survive_every_engine: 20, LEGAL {
        kinds: &[Kind::Heat2d, Kind::Box2d, Kind::Gs2d, Kind::Life],
        methods: &[Method::Temporal, Method::Multiload]
    };
    oracle_covers_every_edge_class: 1500, ALL {};
    // tests/plan_api.rs
    untiled_one_chunk_and_chunked_plans_agree_with_the_reference: 60, LEGAL {
        methods: &[Method::Temporal, Method::Scalar, Method::Multiload],
        blocks: &[Block::Whole, Block::Cut],
        threads: (1, 2)
    };
    every_accepted_1d_stride_resolves_by_capability: 60, LEGAL {
        kinds: &[Kind::Heat1d, Kind::Gs1d, Kind::Lcs],
        methods: TEMPORAL,
        selects: &[Select::Auto],
        strides: &[Stride::Accepted, Stride::Accepted, Stride::Rejected]
    };
    auto_widens_the_kinds_with_eight_lanes_where_they_pay: 50, LEGAL {
        methods: TEMPORAL,
        selects: &[Select::Auto],
        outer: &[Outer::WideMin],
        steps: &[Steps::NearMultiple]
    };
    huge_strides_run_the_scalar_schedule_or_a_typed_error: 60, LEGAL { strides: &[Stride::Huge] };
    oversized_lcs_blocks_build_and_answer: 40,
        LEGAL { kinds: &[Kind::Lcs], tiles: TILED, blocks: &[Block::Bad] };
    // tests/properties.rs
    temporal_1d_jacobi_equals_reference: 24, LEGAL { kinds: &[Kind::Heat1d], methods: TEMPORAL };
    temporal_1d_gs_equals_reference: 32, LEGAL { kinds: &[Kind::Gs1d], methods: TEMPORAL };
    temporal_2d_equals_reference: 24,
        LEGAL { kinds: &[Kind::Heat2d, Kind::Box2d, Kind::Gs2d], methods: TEMPORAL };
    life_vl8_equals_reference: 24, LEGAL { kinds: &[Kind::Life] };
    ghost_tiling_equals_reference: 24, LEGAL { kinds: JACOBI, tiles: TILED };
    skewed_gs_tiling_equals_reference: 48, LEGAL { kinds: GS, tiles: TILED };
    tiled_lcs_equals_reference: 60, LEGAL {
        kinds: &[Kind::Lcs],
        tiles: TILED,
        threads: (2, 8),
        outer: &[Outer::VlS, Outer::WideMin, Outer::Free],
        steps: &[Steps::NearMultiple, Steps::Free]
    };
    masked_ends_meet_inside_one_part: 160, LEGAL {
        kinds: &[Kind::Heat1d, Kind::Gs1d, Kind::Lcs],
        methods: TEMPORAL,
        tiles: &[Tile::None, Tile::Native, Tile::Native],
        threads: (2, 4),
        strides: &[Stride::Default, Stride::Accepted, Stride::Accepted],
        outer: &[Outer::Masked],
        blocks: &[Block::VlS, Block::Cut]
    };
    stride_legality_is_enforced_and_sufficient: 40, LEGAL {
        kinds: GRIDS,
        methods: TEMPORAL,
        strides: &[Stride::Accepted, Stride::Rejected],
        outer: &[Outer::Tiny, Outer::VlS]
    };
}

// ---------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------

/// Accepted and rejected draws per kind and edge class, over `cases`, by
/// the validation model.
pub fn tally(cases: &[Case]) -> BTreeMap<(Kind, String), (usize, usize)> {
    let mut t = BTreeMap::<_, (usize, usize)>::new();
    for case in cases {
        let kind = Kind::of(&case.problem);
        let accepted = expected_error(&case.problem, &case.config).is_none();
        for class in classes(case) {
            let e = t.entry((kind, class)).or_default();
            if accepted {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    t
}

/// The edge classes one case belongs to.
fn classes(case: &Case) -> Vec<String> {
    let Case { config, tags, .. } = case;
    let kind = Kind::of(&case.problem);
    let tiling = match config.tiling {
        Tiling::None => "None",
        Tiling::Ghost { .. } => "Ghost",
        Tiling::Skew { .. } => "Skew",
        Tiling::LcsRect { .. } => "LcsRect",
    };
    let mut v = vec![
        format!("outer {:?}", tags.outer),
        format!("steps {:?}", tags.steps),
        format!("stride {:?}", tags.stride),
        format!("tiling {tiling}"),
        format!("method {:?}", config.method),
        format!("select {:?}", config.select),
        format!("threads {}", threads_class(config.threads)),
        format!("pin {}", config.pin),
    ];
    if matches!(kind.dims(), 2 | 3) {
        v.push(format!("inner {:?}", tags.inner));
    }
    if config.tiling != Tiling::None {
        v.push(format!("block {:?}", tags.block));
    }
    if tags.stride == Stride::Accepted {
        v.push(format!("s={}", config.stride.unwrap_or(0)));
    }
    v
}

/// The thread-count class of `threads`.
fn threads_class(threads: usize) -> &'static str {
    match threads {
        0 => "0",
        1 => "1",
        2..=4 => "2-4",
        _ => "5-8",
    }
}

/// The edge classes a kind's draws must cover: every class [`Space::ALL`]
/// draws from, every tiling, thread-count class and accepted stride.
pub fn edge_classes(kind: Kind) -> Vec<String> {
    fn each<T: std::fmt::Debug>(what: &str, xs: &[T]) -> Vec<String> {
        xs.iter().map(|x| format!("{what} {x:?}")).collect()
    }
    let all = Space::ALL;
    let mut v = [
        each("outer", all.outer),
        each("steps", all.steps),
        each("stride", all.strides),
        each("block", all.blocks),
        each("method", all.methods),
        each("select", all.selects),
        each("pin", &[false, true]),
        ["None", "Ghost", "Skew", "LcsRect"]
            .map(|t| format!("tiling {t}"))
            .into(),
        ["1", "2-4", "5-8"].map(|t| format!("threads {t}")).into(),
        kind.accepted_strides()
            .iter()
            .map(|s| format!("s={s}"))
            .collect(),
    ]
    .concat();
    if matches!(kind.dims(), 2 | 3) {
        v.extend(each("inner", all.inner));
    }
    v.sort();
    v.dedup();
    v.retain(|c| c != "outer WideMin" || kind.wide_min().is_some());
    v
}

/// Whether a kind can accept a case of `class` at all (on this host).
pub fn admits_acceptance(kind: Kind, class: &str) -> bool {
    let foreign = |t: Tile| t != kind.native_tiling();
    match class {
        "stride Rejected" | "block Bad" | "threads 0" => false,
        "outer Empty" => kind == Kind::Lcs,
        "tiling Ghost" => !foreign(Tile::Ghost),
        "tiling Skew" => !foreign(Tile::Skew),
        "tiling LcsRect" => !foreign(Tile::Rect),
        "method Multiload" => !kind.is_gs() && kind != Kind::Lcs,
        "method Reorg" | "method Dlt" => kind == Kind::Heat1d,
        "select Avx2" => avx2_available(),
        _ => true,
    }
}
