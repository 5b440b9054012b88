//! Temporal vectorization of one-dimensional stencils (paper §3.2,
//! Algorithm 3, generalized).
//!
//! # The scheme
//!
//! One *time tile* advances the whole grid from level `t` to level
//! `t + VL` (`VL` = vector length). Within the tile, the **input vector**
//! anchored at `x` packs one value from each level (lane `i` = level `i`):
//!
//! ```text
//! V(x) = (lane VL-1 .. lane 0) = ( a[t+VL-1][x], …, a[t+1][x+(VL-2)·s], a[t][x+(VL-1)·s] )
//! ```
//!
//! Applying the 3-point stencil to `V(x-1), V(x), V(x+1)` lane-wise yields
//! the **output vector** `O(x)` whose lane `i` is the level-`i+1` value at
//! `x + (VL-1-i)·s` — one fused update of `VL` different time levels. The
//! top lane `a[t+VL][x]` is the finished value and is stored; the rest
//! shift up one lane and absorb one fresh level-`t` element to become
//! `V(x+s)` (one `vrotate` + one `vblend`, the paper's constant
//! reorganization cost):
//!
//! ```text
//!   t+4 |    .  O₃ .  .  .  .  .  .  .        O(x) = S(V(x-1), V(x), V(x+1))
//!   t+3 |    .  V₃ .  O₂ .  .  .  .  .        V(x+s) = O(x) ⟰ a[t][x+4s]
//!   t+2 |    .  .  .  V₂ .  O₁ .  .  .        (s = 2, VL = 4)
//!   t+1 |    .  .  .  .  .  V₁ .  O₀ .
//!   t   |    .  .  .  .  .  .  .  V₀ ⬓
//!        ───────────────────────────────→ x
//! ```
//!
//! A triangular **prologue** pre-computes levels `1..VL` near the left
//! boundary scalar-wise (Algorithm 3 lines 2-4), the strided gather of
//! lines 5-7 assembles the initial `s+1` input vectors, the steady-state
//! loop runs `x = 1 ..= NX+1-VL·s`, and a triangular **epilogue** drains
//! the surviving ring vectors and finishes the right edge scalar-wise
//! (lines 16-22).
//!
//! # Gauss-Seidel
//!
//! For Gauss-Seidel stencils the newest-value west operand is lane-aligned
//! in the *previous output vector* (§3.4): `O(x) = S(O(x-1), V(x),
//! V(x+1))`. Everything else — prologue, production rule, epilogue — is
//! identical; this module implements both update kinds over the same
//! skeleton.
//!
//! # Single-array execution (§3.5)
//!
//! The sweep is **in place**: the store of `a[t+VL][x]` lands `VL·s` cells
//! behind every remaining level-`t` read, so one array serves as both
//! input and output and the memory traffic of Jacobi stencils halves.
//! Intermediate levels `1..VL` exist only in vector registers plus `O(s)`
//! scratch at the two boundaries, exactly as the paper prescribes.
//!
//! # A sweep is resumable
//!
//! The steady state at `x` stores into `a[x]` and loads from
//! `a[x + VL·s]`, so the anchors `1 ..= x_max` may be cut into **parts**
//! run in ascending order: [`sweep_body`] is the primitive — the prologue when
//! its range starts at anchor 1, the steady state over the range, the
//! epilogue when it ends at `x_max` — and a whole tile is its one-part
//! case. The ring of in-flight input vectors and the Gauss-Seidel output
//! vector live in [`Scratch1d`] between parts; consecutive parts are the paper's
//! §3.4 parallelogram tiles, and a part touches only the cells from its
//! first anchor to `VL·s` past its last, which is what lets
//! `tempora-tiling` run a second sweep through the same array close
//! behind the first. [`scalar_cells`] cuts the in-place scalar step the
//! same way.
//!
//! # One steady state, one source, two codegen contexts
//!
//! The steady state is written once (`ring_sweep`), for both kernels and
//! both engines: it is generic over the register form it computes in
//! ([`tempora_simd::F64Lanes`]), and with its ring length `R = s + 1` a
//! constant it runs unrolled that wide, every ring slot a local with a
//! constant index — a `ymm` register when the form is `Ymm`. A produced
//! input vector is first consumed `s - 1` iterations later, and only with
//! the ring in registers does that hop cost the arithmetic's latency alone
//! (§3.3's reason for the stride; README, "Where the time goes in a
//! tile"). Its rolled `R = 0` form keeps the ring in scratch memory and
//! serves every other stride — and every stride of the portable engine,
//! whose `mul_add` is a libm call either way.
//!
//! [`sweep_body`] and everything under it — [`tile_prologue`],
//! [`tile_epilogue`], [`gs_initial_output`], [`scalar_cells`] — is
//! `#[inline(always)]`: the portable engine instantiates it for baseline
//! x86-64 with `Packs`, and [`crate::t1d_avx2`] instantiates the same
//! source again with `Ymm` inside its
//! `#[target_feature(enable = "avx2,fma")]` functions, where `mul_add` is
//! one `vfmadd` instead of a call into libm's `fma` (same exactly-rounded
//! result). `cargo xtask audit` (rule `phase-inline`) guards the
//! attributes.

use crate::kernels::Kernel1d;
use crate::t1d_avx2::REGISTER_STRIDES;
use core::ops::RangeInclusive;
use tempora_grid::Grid1;
use tempora_simd::count::{self, Op};
use tempora_simd::{F64Lanes, Pack, Packs};

/// Minimum interior size for the vector path of one tile; below this the
/// tile falls back to the scalar schedule (same results).
#[inline]
pub fn min_vector_n<const VL: usize>(s: usize) -> usize {
    VL * s
}

/// Everything one sweep has in flight at stride `s`: what its phases and
/// parts hand each other, reusable by the next sweep.
///
/// Head plane `k` (1-based level) holds levels computed by the prologue
/// over `x ∈ 0 ..= (VL-k)·s` (entry 0 is the left boundary value); tail
/// plane `i` holds the level-`i` values surrounding the right edge,
/// re-based at `x_max + (VL-1-i)·s`.
pub struct Scratch1d<const VL: usize> {
    head: Vec<Vec<f64>>,
    tail: Vec<Vec<f64>>,
    /// The in-flight input vectors: slot `j % (s+1)` holds `V(j)`.
    ring: [Pack<f64, VL>; RING_CAP],
    /// Gauss-Seidel: the previous output vector `O(x-1)`.
    o_prev: Pack<f64, VL>,
}

impl<const VL: usize> Scratch1d<VL> {
    /// Allocate scratch for stride `s`.
    pub fn new(s: usize) -> Self {
        let head = (0..VL).map(|k| vec![0.0; (VL - k) * s + 2]).collect();
        let tail = (0..VL).map(|i| vec![0.0; (i + 1) * s + 2]).collect();
        Scratch1d {
            head,
            tail,
            ring: [Pack::splat(0.0); RING_CAP],
            o_prev: Pack::splat(0.0),
        }
    }
}

/// The anchors `xs` of one temporal sweep (`VL` time steps, in place):
/// the prologue when `xs` starts at anchor 1, the steady state over `xs`,
/// the epilogue when `xs` ends at the last anchor `x_max = n + 1 - VL·s`.
/// `a` is a window of the array that starts at cell `first`; the part
/// touches the cells from its first anchor (from the halo cell 0 with the
/// prologue) to `VL·s` past its last (to the halo cell `n + 1` with the
/// epilogue). Parts of one sweep run in ascending order over the same
/// `scratch`, which carries the ring between them.
///
/// The steady state computes in `isa`'s registers, and the codegen context
/// is the caller's: baseline x86-64 for `Packs`, a [`crate::t1d_avx2`]
/// sandwich for `Ymm`. `REGS` lets the strides in [`REGISTER_STRIDES`]
/// keep their ring in registers (what only `Ymm` has); `COUNT` enables
/// reorganization-instruction accounting (see [`tempora_simd::count`]).
///
/// # Panics
/// Panics if `s` is illegal for the kernel or `n < VL·s` (no vector
/// schedule: run scalar steps instead).
// Justification: register form, window, extent, kernel, stride, carried state and anchor range are the part's contract; a params struct would only rename it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn sweep_body<const VL: usize, const COUNT: bool, const REGS: bool, K, L>(
    isa: L,
    a: &mut [f64],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<VL>,
    xs: RangeInclusive<usize>,
) where
    K: Kernel1d,
    L: F64Lanes<VL>,
{
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert!(n >= min_vector_n::<VL>(s), "n={n} below VL*s: run scalar");
    let x_max = n + 1 - VL * s;
    let (x0, x1) = (*xs.start(), *xs.end());
    if x0 == 1 {
        assert_eq!(first, 0, "the prologue reads from the halo cell");
        tile_prologue::<VL, K>(a, kern, s, scratch);
    }
    let Scratch1d { ring, o_prev, .. } = scratch;
    *o_prev = steady_ring::<VL, COUNT, REGS, K, L>(isa, a, first, kern, s, ring, *o_prev, x0, x1);
    if x1 == x_max {
        tile_epilogue::<VL, K>(a, first, n, kern, s, scratch, x_max);
    }
}

/// The steady state (Algorithm 3 lines 8-15) over the anchors
/// `x0 ..= x_max`, in place, on the window `a` that starts at cell
/// `first`: the one dispatch on the stride. On entry ring slot
/// `j % (s+1)` holds `V(j)` for `j ∈ x0-1 ..= x0-1+s` and `o_prev` is
/// `O(x0-1)` (read by Gauss-Seidel only); on exit the same holds for
/// `j ∈ x_max ..= x_max+s` and `O(x_max)` is returned.
// Justification: the steady state's operands (register form, window, kernel, stride, ring, carried output vector, anchor range) are its contract; a params struct would sit between the loop and its registers.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn steady_ring<const VL: usize, const COUNT: bool, const REGS: bool, K, L>(
    isa: L,
    a: &mut [f64],
    first: usize,
    kern: &K,
    s: usize,
    ring: &mut [Pack<f64, VL>; RING_CAP],
    o_prev: Pack<f64, VL>,
    x0: usize,
    x_max: usize,
) -> Pack<f64, VL>
where
    K: Kernel1d,
    L: F64Lanes<VL>,
{
    if !REGS {
        return ring_sweep::<0, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max);
    }
    match s {
        2 => ring_sweep::<3, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        3 => ring_sweep::<4, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        4 => ring_sweep::<5, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        5 => ring_sweep::<6, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        6 => ring_sweep::<7, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        7 => ring_sweep::<8, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        8 => ring_sweep::<9, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        9 => ring_sweep::<10, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        10 => ring_sweep::<11, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        11 => ring_sweep::<12, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        12 => ring_sweep::<13, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        13 => ring_sweep::<14, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max),
        _ => {
            debug_assert!(!REGISTER_STRIDES.contains(&s), "no arm for stride {s}");
            ring_sweep::<0, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
        }
    }
}

/// The steady-state body, written once. `R = s + 1` is the ring length as
/// a constant: whole chunks of `R` iterations run unrolled with the ring
/// in a local `[L::V; R]` whose every index is a compile-time constant, so
/// each slot is a register — iteration `x+k` reads `V(x+k-1)`, `V(x+k)`,
/// `V(x+k+1)` from `r[k]`, `r[(k+1) % R]`, `r[(k+2) % R]` and overwrites
/// the dead `r[k]` with the `V(x+k+s)` it produces (`x+k+s ≡ x+k-1 mod R`),
/// which leaves `r[k] = V(x+R-1+k)`: the entry layout of the next chunk.
/// The rolled loop below it indexes the ring in memory (`V(x-1)`, `V(x)`
/// carried in registers, indices tracked incrementally: one vector load
/// and one vector store per output vector) and serves the `< R` remainder
/// iterations — and, as `R = 0`, whole sweeps.
// Justification: as for `steady_ring`, whose arguments these are.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn ring_sweep<const R: usize, const VL: usize, const COUNT: bool, K, L>(
    isa: L,
    a: &mut [f64],
    first: usize,
    kern: &K,
    s: usize,
    ring: &mut [Pack<f64, VL>; RING_CAP],
    o_prev: Pack<f64, VL>,
    x0: usize,
    x_max: usize,
) -> Pack<f64, VL>
where
    K: Kernel1d,
    L: F64Lanes<VL>,
{
    let rlen = s + 1;
    assert!(x0 >= 1 && rlen <= RING_CAP && (R == 0 || R == rlen));
    // From here on `a[i]` is cell `x0 + i` and iteration `i` is anchor
    // `x0 + i`. The one bound of the loop: every store `a[i]` and every
    // bottom load `a[i + VL·s]` below has `i < n`. The parts of a sweep
    // establish it (the window of a part reaches from its first anchor to
    // `VL·s` past its last).
    assert!(first <= x0 && x0 <= x_max);
    let a = &mut a[x0 - first..];
    let n = x_max + 1 - x0;
    assert!(n - 1 + VL * s < a.len());
    let kern = *kern; // by value: the coefficient splats hoist
    let mut o_prev = isa.load(o_prev);
    // One iteration: the kernel's fused tree on `west, v0, vp1`; the
    // finished top lane a[t+VL][x] is stored (line 12), and V(x+s) — one
    // rotate, one blend of the fresh bottom (lines 13-14) — returned with
    // O(x).
    let step = |a: &mut [f64], i: usize, west: L::V, v0: L::V, vp1: L::V| {
        let o = kern.pack(isa, west, v0, vp1);
        if COUNT {
            count::record_output(1);
            count::record(Op::ScalarExtract, 1);
            count::record(Op::CrossLane, 1); // vrotate
            count::record(Op::InLane, 1); // vblend
            count::record(Op::ScalarInsert, 1);
        }
        // SAFETY: `i < n` at both call sites, so `i` and `i + VL·s` are in
        // bounds by the hoisted `assert!(n - 1 + VL * s < a.len())` above.
        unsafe {
            *a.get_unchecked_mut(i) = isa.top(o);
            (o, isa.shift_up_insert(o, *a.get_unchecked(i + VL * s)))
        }
    };
    let mut i = 0;
    if R > 0 {
        // Slot of V(x0-1): r[k] = V(x0-1+i+k), and whole chunks leave the
        // rotation as it is.
        let rot = (x0 - 1) % R;
        let mut r = [o_prev; R];
        for k in 0..R {
            r[k] = isa.load(ring[(rot + k) % R]);
        }
        while i + R <= n {
            for k in 0..R {
                let west = if K::IS_GS { o_prev } else { r[k] };
                (o_prev, r[k]) = step(a, i + k, west, r[(k + 1) % R], r[(k + 2) % R]);
            }
            i += R;
        }
        for k in 0..R {
            ring[(rot + k) % R] = isa.store(r[k]);
        }
    }
    let ring = &mut ring[..rlen];
    let x = x0 + i;
    let mut im1 = (x - 1) % rlen;
    let mut ip1 = (x + 1) % rlen;
    let mut vm1 = isa.load(ring[im1]);
    let mut v0 = isa.load(ring[x % rlen]);
    for i in i..n {
        let vp1 = isa.load(ring[ip1]);
        let west = if K::IS_GS { o_prev } else { vm1 };
        let v;
        (o_prev, v) = step(a, i, west, v0, vp1);
        // V(x+s) reuses the dead V(x-1) slot ((x+s) ≡ (x-1) mod s+1).
        ring[im1] = isa.store(v);
        vm1 = v0;
        v0 = vp1;
        im1 = if im1 + 1 == rlen { 0 } else { im1 + 1 };
        ip1 = if ip1 + 1 == rlen { 0 } else { ip1 + 1 };
    }
    isa.store(o_prev)
}

/// Ring capacity of the phase API (supports strides up to 16).
pub const RING_CAP: usize = 17;

/// The initial Gauss-Seidel output vector `O(0)` — lane `i` holds the
/// level-`i+1` value at `x = (VL-1-i)·s` (boundary value in the top lane)
/// — assembled from the prologue's head planes.
#[inline(always)]
pub fn gs_initial_output<const VL: usize>(
    boundary_l: f64,
    s: usize,
    scratch: &Scratch1d<VL>,
) -> Pack<f64, VL> {
    Pack::from_fn(|i| {
        let x = (VL - 1 - i) * s;
        if i == VL - 1 {
            boundary_l
        } else {
            scratch.head[i + 1][x]
        }
    })
}

/// Phase 1 of a temporal sweep: scalar prologue triangles plus the strided
/// gather of the initial input vectors `V(0) ..= V(s)` (Algorithm 3 lines
/// 2-7) into the scratch ring (slot `j % (s+1)` holds `V(j)`), and the
/// initial Gauss-Seidel output vector. Reads cells `0 ..= VL·s` of `a`,
/// which starts at the halo cell, and writes only `scratch`.
#[inline(always)]
pub fn tile_prologue<const VL: usize, K: Kernel1d>(
    a: &[f64],
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<VL>,
) {
    debug_assert!(scratch.head.len() >= VL);
    assert!(s < RING_CAP, "stride too large for the ring capacity");
    let boundary_l = a[0];

    // Prologue: levels k = 1..VL-1 over x ∈ 1..=(VL-k)·s, scalar.
    // head[k][x] = a[t+k][x]; head[0] is not used (level 0 lives in `a`).
    for k in 1..VL {
        let hi = (VL - k) * s;
        // Split so we can read head[k-1] while writing head[k].
        let (lo_planes, hi_planes) = scratch.head.split_at_mut(k);
        let plane = &mut hi_planes[0];
        plane[0] = boundary_l;
        if k == 1 {
            for x in 1..=hi {
                plane[x] = kern.scalar(plane[x - 1], a[x - 1], a[x], a[x + 1]);
            }
        } else {
            let below = &lo_planes[k - 1];
            for x in 1..=hi {
                plane[x] = kern.scalar(plane[x - 1], below[x - 1], below[x], below[x + 1]);
            }
        }
    }

    // Initial input vectors V(0) ..= V(s) (Algorithm 3 lines 5-7):
    // lane i of V(j) = level i at x = j + (VL-1-i)·s.
    let ring_len = s + 1;
    for j in 0..=s {
        let v = Pack::<f64, VL>::from_fn(|i| {
            let x = j + (VL - 1 - i) * s;
            if i == 0 {
                a[x]
            } else if x == 0 {
                boundary_l
            } else {
                scratch.head[i][x]
            }
        });
        // Off the hot path: records only into an active counting session.
        count::record(Op::Gather, 1);
        scratch.ring[j % ring_len] = v;
    }
    // §3.4: the newest-west operand is the previous output vector.
    scratch.o_prev = if K::IS_GS {
        gs_initial_output::<VL>(boundary_l, s, scratch)
    } else {
        Pack::splat(0.0)
    };
}

/// Phase 3 of a temporal sweep: drain the surviving ring into the tail
/// planes and finish every level scalar-wise up to `x = n` (Algorithm 3
/// lines 16-22). The scratch ring must hold `V(j)` at slot `j % (s+1)` for
/// `j ∈ x_max ..= x_max+s`, as left behind by the steady state. `a` is a
/// window that starts at cell `first`; cells `x_max ..= n + 1` are
/// touched.
#[inline(always)]
pub fn tile_epilogue<const VL: usize, K: Kernel1d>(
    a: &mut [f64],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<VL>,
    x_max: usize,
) {
    let Scratch1d { tail, ring, .. } = scratch;
    // The window from cell x_max on: a[x - x_max] is cell x.
    let a = &mut a[x_max - first..];
    let ring_len = s + 1;
    let boundary_r = a[n + 1 - x_max];
    for i in 1..VL {
        let base = x_max + (VL - 1 - i) * s;
        // Extract the s+1 surviving lane values of level i.
        for j in x_max..=x_max + s {
            let v = ring[j % ring_len];
            tail[i][j + (VL - 1 - i) * s - base] = v.extract(i);
        }
        // Scalar completion of level i over x ∈ base+s+1 ..= n, reading
        // level i-1 from tail[i-1] (or `a` when i == 1).
        let done_hi = base + s; // = x_max + (VL-i)·s
        let (lo_planes, hi_planes) = tail.split_at_mut(i);
        let plane = &mut hi_planes[0];
        for x in done_hi + 1..=n {
            let rel = x - base;
            let (bm1, b0, bp1) = if i == 1 {
                let at = x - x_max;
                (a[at - 1], a[at], a[at + 1])
            } else {
                let below = &lo_planes[i - 1];
                let bb = x - (base + s); // base_{i-1} = base + s
                (below[bb - 1], below[bb], below[bb + 1])
            };
            let west = plane[rel - 1];
            plane[rel] = kern.scalar(west, bm1, b0, bp1);
        }
        // Right halo of the plane.
        let rel_halo = n + 1 - base;
        tail[i][rel_halo] = boundary_r;
    }

    // Final level VL over x ∈ x_max+1 ..= n, writing into `a`; tail[VL-1]
    // is based at x_max like the window.
    let below = &tail[VL - 1];
    for rel in 1..=n - x_max {
        let west = a[rel - 1]; // already level VL (GS) — unused for Jacobi
        a[rel] = kern.scalar(west, below[rel - 1], below[rel], below[rel + 1]);
    }
}

/// One in-place scalar time step (used for degenerate tiles and for the
/// `T mod VL` remainder steps). Bit-identical to the double-buffered
/// reference: for Jacobi the old west value is carried in a register so a
/// single array suffices; for Gauss-Seidel in-place *is* the definition.
#[inline(always)]
pub fn scalar_step_inplace<K: Kernel1d>(a: &mut [f64], n: usize, kern: &K) {
    scalar_cells(a, 0, kern, 1..=n, &mut 0.0);
}

/// The cells `xs` of one in-place scalar time step. `a` is a window of the
/// array that starts at cell `first`; cells `xs.start() - 1 ..=
/// xs.end() + 1` are touched. The step is resumable: `old_west` carries
/// the old value of the last cell a part updated to the part that
/// continues at the next cell (Jacobi only; a part that starts at cell 1
/// takes it from the halo cell), so a step may be cut into parts run in
/// ascending order.
#[inline(always)]
pub fn scalar_cells<K: Kernel1d>(
    a: &mut [f64],
    first: usize,
    kern: &K,
    xs: RangeInclusive<usize>,
    old_west: &mut f64,
) {
    let (x0, x1) = (*xs.start() - first, *xs.end() - first);
    if K::IS_GS {
        for x in x0..=x1 {
            a[x] = kern.scalar(a[x - 1], a[x - 1], a[x], a[x + 1]);
        }
    } else {
        let mut prev = if *xs.start() == 1 {
            a[x0 - 1]
        } else {
            *old_west
        };
        for x in x0..=x1 {
            let cur = a[x];
            a[x] = kern.scalar(prev, prev, cur, a[x + 1]);
            prev = cur;
        }
        *old_west = prev;
    }
}

/// Run `steps` time steps of a 1-D stencil with the temporal-vectorized
/// schedule (vector length `VL`) on the portable engine, returning the
/// final grid.
///
/// Full tiles of height `VL` run one whole [`sweep_body`] each — `VL` scalar
/// steps when `n` cannot host the vector schedule — and the `steps mod VL`
/// remainder runs scalar. Results are bit-identical to the scalar
/// reference. `COUNT` records every data-reorganization operation of the
/// steady state in the active [`tempora_simd::count::Session`] (identical
/// numerics; for analysis only).
///
/// # Panics
/// Panics if `s` is illegal for the kernel (`s < K::MIN_STRIDE`).
pub fn run<const VL: usize, const COUNT: bool, K: Kernel1d>(
    grid: &Grid1<f64>,
    kern: &K,
    steps: usize,
    s: usize,
) -> Grid1<f64> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    let mut g = grid.clone();
    let n = g.n();
    let mut scratch = Scratch1d::<VL>::new(s);
    let (sweeps, scalar_steps) = if n >= min_vector_n::<VL>(s) {
        (steps / VL, steps % VL)
    } else {
        (0, steps)
    };
    let a = g.data_mut();
    for _ in 0..sweeps {
        let xs = 1..=n + 1 - VL * s;
        sweep_body::<VL, COUNT, false, K, _>(Packs, a, 0, n, kern, s, &mut scratch, xs);
    }
    for _ in 0..scalar_steps {
        scalar_step_inplace(a, n, kern);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{GsKern1d, JacobiKern1d};
    use tempora_grid::{fill_random_1d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::{Gs1dCoeffs, Heat1dCoeffs};

    fn random_grid(n: usize, seed: u64, b: f64) -> Grid1<f64> {
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(b));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn jacobi_single_tile_matches_reference() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for &n in &[8usize, 9, 16, 31, 64, 100, 127] {
            for s in 2..=7 {
                let g = random_grid(n, 42 + n as u64, 0.5);
                let ours = run::<4, false, _>(&g, &kern, 4, s);
                let gold = reference::heat1d(&g, c, 4);
                assert!(
                    ours.interior_eq(&gold),
                    "n={n} s={s} first diff: {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
            }
        }
    }

    #[test]
    fn jacobi_many_steps_and_remainders() {
        let c = Heat1dCoeffs::classic(0.2);
        let kern = JacobiKern1d(c);
        for steps in [0usize, 1, 2, 3, 4, 5, 7, 8, 12, 13, 29] {
            let g = random_grid(61, 7, -0.25);
            let ours = run::<4, false, _>(&g, &kern, steps, 3);
            let gold = reference::heat1d(&g, c, steps);
            assert!(
                ours.interior_eq(&gold),
                "steps={steps} diff {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn jacobi_tiny_grids_fall_back_to_scalar() {
        let c = Heat1dCoeffs::classic(0.3);
        let kern = JacobiKern1d(c);
        for n in 1..=16 {
            let g = random_grid(n, n as u64, 1.0);
            let ours = run::<4, false, _>(&g, &kern, 8, 4); // needs n >= 16 for vector path
            let gold = reference::heat1d(&g, c, 8);
            assert!(ours.interior_eq(&gold), "n={n}");
        }
    }

    #[test]
    fn jacobi_vl8_matches_reference() {
        // The engine is generic over vector length: VL = 8 models an
        // AVX-512-width register.
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for &n in &[32usize, 57, 96] {
            let g = random_grid(n, 3, 0.0);
            let ours = run::<8, false, _>(&g, &kern, 16, 2);
            let gold = reference::heat1d(&g, c, 16);
            assert!(
                ours.interior_eq(&gold),
                "n={n} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn gs_single_tile_matches_reference() {
        let c = Gs1dCoeffs::classic(0.25);
        let kern = GsKern1d(c);
        for &n in &[8usize, 15, 33, 64, 101] {
            for s in 2..=7 {
                let g = random_grid(n, 100 + n as u64, 0.25);
                let ours = run::<4, false, _>(&g, &kern, 4, s);
                let gold = reference::gs1d(&g, c, 4);
                assert!(
                    ours.interior_eq(&gold),
                    "n={n} s={s} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn gs_many_steps_matches_reference() {
        let c = Gs1dCoeffs::new(0.4, 0.35, 0.25);
        let kern = GsKern1d(c);
        for steps in [1usize, 4, 6, 8, 11, 20] {
            let g = random_grid(77, 9, -1.0);
            let ours = run::<4, false, _>(&g, &kern, steps, 7); // the paper's s = 7
            let gold = reference::gs1d(&g, c, steps);
            assert!(
                ours.interior_eq(&gold),
                "steps={steps} diff {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    #[should_panic(expected = "illegal")]
    fn illegal_stride_panics() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let g = random_grid(64, 1, 0.0);
        let _ = run::<4, false, _>(&g, &kern, 4, 1);
    }

    #[test]
    fn nonzero_boundary_is_respected() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let g = random_grid(40, 5, 2.5);
        let ours = run::<4, false, _>(&g, &kern, 12, 2);
        let gold = reference::heat1d(&g, c, 12);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
        // Halo cells must still hold the boundary value.
        assert_eq!(ours.get(0), 2.5);
        assert_eq!(ours.get(41), 2.5);
    }

    #[test]
    fn counted_run_reports_constant_reorg_per_output() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let g = random_grid(4096, 11, 0.0);
        let session = tempora_simd::count::Session::start();
        let _ = run::<4, true, _>(&g, &kern, 4, 7);
        let counts = session.finish();
        assert!(counts.output_vectors > 0);
        // Per-iteration production rule: exactly 1 lane-crossing rotate
        // and 1 in-lane blend per output vector, independent of n and s —
        // the paper's "small fixed number".
        assert_eq!(counts.cross_lane, counts.output_vectors);
        assert_eq!(counts.in_lane, counts.output_vectors);
        // Gathers only at tile start: s+1 = 8.
        assert_eq!(counts.gather, 8);
    }
}
