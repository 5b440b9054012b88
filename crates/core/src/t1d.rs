//! Temporal vectorization of one-dimensional stencils (paper §3.2,
//! Algorithm 3, generalized): the one 1-D sweep, which Heat-1D, GS-1D and
//! the LCS bands all run.
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
//! The steady-state loop runs the anchors `x = 1 ..= NX+1-VL·s`, where
//! every lane's cell lies in the grid. Where Algorithm 3 has scalar
//! triangles (lines 2-7 and 16-22), the **ends are steady iterations
//! too**, over the anchors `1-(VL-1)·s ..= 0` and `NX+2-VL·s ..= NX`, with
//! **masked lanes**: a lane whose cell lies outside `1 ..= NX` takes the
//! boundary value (one lane select per output vector), the halo the
//! in-grid lanes read. Only a ring fill is left — lane 0 of the first
//! `s+1` input vectors from `a[0 ..= s]`, the other lanes the boundary —
//! and an in-grid lane runs the scalar update's fused tree on its
//! operands, so the result is bit for bit the reference's.
//!
//! # Gauss-Seidel, and LCS
//!
//! For Gauss-Seidel stencils the newest-value west operand is lane-aligned
//! in the *previous output vector* (§3.4): `O(x) = S(O(x-1), V(x),
//! V(x+1))`. Everything else — the masked ends, the production rule — is
//! identical. LCS (§3.4, [`crate::lcs`]) is such a Gauss-Seidel stencil
//! over one DP row, with `A` and `B` as variable coefficients and no old
//! east operand, which is why its minimum stride is 1. The driver here
//! serves all three: a kernel enters as a [`Line`] — its vector update,
//! told the cell of its lane 0, and its steady state — and its dependence
//! reach, `MIN_STRIDE - 1` cells east, decides the last steady anchor
//! (`n + 1 - VL·s` for the 3-point kernels, `n - VL·s` for LCS) and the
//! value the back's masked lanes keep (the right halo of the 3-point
//! kernels).
//!
//! # Single-array execution (§3.5)
//!
//! The sweep is **in place**: the store of `a[t+VL][x]` lands `VL·s` cells
//! behind every remaining level-`t` read, so one array serves as both
//! input and output and the memory traffic of Jacobi stencils halves.
//! Intermediate levels `1..VL` exist only in vector registers and the
//! ring of `s + 1` input vectors, at the boundaries too.
//!
//! # A sweep is resumable
//!
//! The steady state at `x` stores into `a[x]` and loads from
//! `a[x + VL·s]`, so the anchors `1 ..= x_max` may be cut into **parts**
//! run in ascending order: [`sweep_body`] is the primitive — the masked
//! front when its range starts at anchor 1, the steady state over the
//! range, the masked back when it ends at `x_max` — and a whole tile is
//! its one-part case. The ring of in-flight input vectors and the
//! Gauss-Seidel output vector live in [`Scratch1d`] between parts;
//! consecutive parts are the paper's §3.4 parallelogram tiles, and a part
//! touches only the cells from its first anchor to `VL·s` past its last,
//! which is what lets `tempora-tiling` run a second sweep through the same
//! array close behind the first (and cut an LCS band at its block
//! columns).
//! [`scalar_cells`] cuts the in-place scalar step the same way.
//!
//! # One steady state per kernel, one source, three codegen contexts
//!
//! The 3-point kernels' steady state is written once (`ring_sweep`), for
//! both kernels and every engine: it is generic over the register form it
//! computes in ([`tempora_simd::F64Lanes`]) and over the lane count `VL`,
//! and with its ring length `R = s + 1` a constant it runs unrolled that
//! wide, every ring slot a local with a constant index — a `ymm` register
//! when the form is `Ymm`, a `zmm` register when it is `Zmm` at `VL = 8`.
//! A produced input vector is first consumed `s - 1` iterations later,
//! and only with the ring in registers does that hop cost the arithmetic's
//! latency alone (§3.3's reason for the stride; README, "Where the time
//! goes in a tile"). Its rolled `R = 0` form keeps the ring in scratch
//! memory and serves every other stride — and every stride of the
//! portable engine, whose `mul_add` is a libm call either way. LCS brings
//! its own (`lcs::ring_regs`), on the same ring.
//!
//! [`sweep_body`] and everything under it — `masked_end`, the steady
//! states, [`scalar_cells`] — is `#[inline(always)]`: the portable engine instantiates it for baseline
//! x86-64 with `Packs`, and [`crate::t1d_avx2`] instantiates the same
//! source again with `Ymm` inside its
//! `#[target_feature(enable = "avx2,fma")]` sandwich, where `mul_add` is
//! one `vfmadd` instead of a call into libm's `fma` (same exactly-rounded
//! result), and a third time at eight `f64` (sixteen `i32`) lanes with
//! `Zmm` inside `#[target_feature(enable = "avx512f,avx2,fma")]`: one
//! rotate and one blend per output vector at either width, the paper's
//! "irrelevant to the vector length". `sweep` is the one dispatch from
//! a resolved engine into them. `cargo xtask audit` (rule `phase-inline`)
//! guards the attributes.

use crate::engine::{Avx2Lanes, Avx512Lanes, Engine, ScratchVl};
use crate::kernels::Kernel1d;
use crate::t1d_avx2::{REGISTER_STRIDES, ZMM_REGISTER_STRIDES};
use core::ops::RangeInclusive;
use tempora_simd::count::{self, Op};
use tempora_simd::{F64Lanes, Lanes, Mask, Pack, Packs, Scalar};
#[cfg(target_arch = "x86_64")]
use {
    crate::engine::{ymm, zmm},
    crate::t1d_avx2,
};

/// Everything one sweep has in flight at stride `s`: what its parts hand
/// each other, reusable by the next sweep — `s + 1` input vectors and one
/// output vector at any lane count, its masked ends included.
pub struct Scratch1d<T, const VL: usize> {
    /// The in-flight input vectors: slot `j mod (s+1)` holds `V(j)`.
    ring: Vec<Pack<T, VL>>,
    /// The last output vector `O(x)` of the anchors run so far (read by
    /// the Gauss-Seidel kernels).
    o_prev: Pack<T, VL>,
}

impl<T: Scalar, const VL: usize> Scratch1d<T, VL> {
    /// Allocate scratch for stride `s`.
    pub fn new(s: usize) -> Self {
        Scratch1d {
            ring: vec![Pack::splat(T::ZERO); s + 1],
            o_prev: Pack::splat(T::ZERO),
        }
    }
}

impl<T: Scalar, const N: usize, const W: usize> ScratchVl<Scratch1d<T, N>, Scratch1d<T, W>> {
    /// Allocate scratch for `engine`'s 1-D sweeps at stride `s`: `W` lanes
    /// on [`Engine::Avx512`], `N` on the others.
    pub fn new(engine: Engine, s: usize) -> Self {
        match engine {
            Engine::Avx512 => ScratchVl::Wide(Scratch1d::new(s)),
            Engine::Portable | Engine::Avx2 => ScratchVl::Narrow(Scratch1d::new(s)),
        }
    }
}

/// A 1-D kernel computing in its register form at `VL` lanes: all the
/// 1-D sweep needs to know about a stencil. `Copy`: the steady state holds
/// it by value, so that coefficients and their splats are loop invariants
/// in registers.
pub trait Line<T: Scalar, const VL: usize>: Copy {
    /// Minimum legal stride: 2 for a kernel that reads the old east
    /// neighbour, 1 for one that does not (LCS). `MIN_STRIDE - 1` is how
    /// far east of its cell an update reads.
    const MIN_STRIDE: usize;

    /// The register form it computes in.
    type Isa: Lanes<T, VL>;

    /// Its register form's token.
    fn isa(&self) -> Self::Isa;

    /// The output vector `O(x)` of the anchor whose lane 0 lies at cell
    /// `u = x + (VL-1)·s`, from `west = O(x-1)` and `V(x-1), V(x),
    /// V(x+1)`: lane for lane the scalar update's fused tree. A lane whose
    /// cell leaves `1 ..= n` (the masked ends discard it) must still read
    /// inside an allocation.
    fn update(
        &self,
        u: usize,
        west: V<T, VL, Self>,
        vm1: V<T, VL, Self>,
        v0: V<T, VL, Self>,
        vp1: V<T, VL, Self>,
    ) -> V<T, VL, Self>;

    /// The steady state (Algorithm 3 lines 8-15) over the anchors
    /// `x0 ..= x1`, in place, on the window `a` that starts at cell
    /// `first`. On entry ring slot `j % (s+1)` holds `V(j)` for
    /// `j ∈ x0-1 ..= x0-1+s` and `o_prev` is `O(x0-1)`; on exit the same
    /// holds for `j ∈ x1 ..= x1+s` and `O(x1)` is returned. `REGS` lets the
    /// ring live in registers (what only the `std::arch` forms have);
    /// `COUNT` enables reorganization-instruction accounting (see
    /// [`tempora_simd::count`]).
    // Justification: the steady state's operands (window, stride, ring, carried output vector, anchor range) are its contract; a params struct would sit between the loop and its registers.
    #[allow(clippy::too_many_arguments)]
    fn steady<const COUNT: bool, const REGS: bool>(
        &self,
        a: &mut [T],
        first: usize,
        s: usize,
        ring: &mut [Pack<T, VL>],
        o_prev: Pack<T, VL>,
        x0: usize,
        x1: usize,
    ) -> Pack<T, VL>;
}

/// A vector in the register form of the line `K`.
type V<T, const VL: usize, K> = <<K as Line<T, VL>>::Isa as Lanes<T, VL>>::V;

/// A 1-D kernel `K` computing in the register form `L`, as the engine
/// dispatch builds it: Heat-1D and GS-1D ([`Kernel1d`]) in `Packs`, `Ymm`
/// or `Zmm`, an LCS band likewise.
#[derive(Clone, Copy, Debug)]
pub struct Form<K, L>(pub K, pub L);

/// The 3-point kernels: their steady state is the ring, the one dispatch
/// on the stride — `R = s + 1` unrolled for the strides in
/// [`REGISTER_STRIDES`] (at eight lanes: [`ZMM_REGISTER_STRIDES`]) when
/// `REGS`, rolled otherwise.
impl<const VL: usize, K: Kernel1d, L: F64Lanes<VL>> Line<f64, VL> for Form<K, L> {
    const MIN_STRIDE: usize = K::MIN_STRIDE;
    type Isa = L;

    #[inline(always)]
    fn isa(&self) -> L {
        self.1
    }

    #[inline(always)]
    fn update(&self, _u: usize, west: L::V, vm1: L::V, v0: L::V, vp1: L::V) -> L::V {
        let west = if K::IS_GS { west } else { vm1 };
        self.0.pack(self.1, west, v0, vp1)
    }

    #[inline(always)]
    fn steady<const COUNT: bool, const REGS: bool>(
        &self,
        a: &mut [f64],
        first: usize,
        s: usize,
        ring: &mut [Pack<f64, VL>],
        o_prev: Pack<f64, VL>,
        x0: usize,
        x_max: usize,
    ) -> Pack<f64, VL> {
        let Form(kern, isa) = self;
        let isa = *isa;
        if !REGS {
            return ring_sweep::<0, VL, COUNT, K, L>(
                isa, a, first, kern, s, ring, o_prev, x0, x_max,
            );
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
            10 => {
                ring_sweep::<11, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            11 => {
                ring_sweep::<12, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            12 => {
                ring_sweep::<13, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            13 => {
                ring_sweep::<14, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            // The 32 `zmm` registers hold the widest rings too.
            14 if VL == 8 => {
                ring_sweep::<15, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            15 if VL == 8 => {
                ring_sweep::<16, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            16 if VL == 8 => {
                ring_sweep::<17, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
            _ => {
                let regs = if VL == 8 {
                    ZMM_REGISTER_STRIDES
                } else {
                    REGISTER_STRIDES
                };
                debug_assert!(!regs.contains(&s), "no arm for stride {s}");
                ring_sweep::<0, VL, COUNT, K, L>(isa, a, first, kern, s, ring, o_prev, x0, x_max)
            }
        }
    }
}

/// The anchors `xs` of one temporal sweep of `kern` (`VL` time steps, in
/// place) on the resolved `engine`: the one engine → sandwich dispatch of
/// the 1-D sweeps, Heat-1D and GS-1D (through `KernelSpace`) and the LCS
/// bands ([`crate::lcs::sweep`]), at `N` lanes on the portable and AVX2
/// engines and `W` on [`Engine::Avx512`], `kern` computing in the
/// engine's register form ([`Form`]). [`sweep_body`]'s contract; `sc`
/// must come from [`ScratchVl::new`] for `engine`, and a `std::arch`
/// engine needs a CPU with its features.
///
/// # Panics
/// As [`sweep_body`], and when `sc` was allocated for another lane count.
// Justification: engine, window, extent, kernel, stride, carried state and anchor range are the part's contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep<T, const N: usize, const W: usize, const COUNT: bool, K>(
    engine: Engine,
    a: &mut [T],
    first: usize,
    n: usize,
    kern: K,
    s: usize,
    sc: &mut ScratchVl<Scratch1d<T, N>, Scratch1d<T, W>>,
    xs: RangeInclusive<usize>,
) where
    T: Scalar,
    Form<K, Packs>: Line<T, N>,
    Form<K, Avx2Lanes>: Line<T, N>,
    Form<K, Avx512Lanes>: Line<T, W>,
{
    match (engine, sc) {
        #[cfg(target_arch = "x86_64")]
        (Engine::Avx512, ScratchVl::Wide(sc)) => {
            let isa = zmm();
            t1d_avx2::sweep_zmm::<T, W, COUNT, _>(isa, a, first, n, &Form(kern, isa), s, sc, xs)
        }
        #[cfg(target_arch = "x86_64")]
        (Engine::Avx2, ScratchVl::Narrow(sc)) => {
            let isa = ymm();
            t1d_avx2::sweep::<T, N, COUNT, _>(isa, a, first, n, &Form(kern, isa), s, sc, xs)
        }
        (Engine::Portable, ScratchVl::Narrow(sc)) => {
            sweep_body::<T, N, COUNT, false, _>(a, first, n, &Form(kern, Packs), s, sc, xs)
        }
        (engine, _) => panic!("sweep scratch was allocated for another engine than {engine:?}"),
    }
}

/// The anchors `xs` of one temporal sweep (`VL` time steps, in place):
/// the masked front when `xs` starts at anchor 1, the steady state over
/// `xs`, the masked back when `xs` ends at the last steady anchor
/// `x_max = n + e - VL·s`, `e = K::MIN_STRIDE - 1` the kernel's reach
/// east (`masked_end`). `a` is a window of the array that starts at cell
/// `first`; the part touches the cells from its first anchor (from cell 0,
/// the left boundary, with the front) to `VL·s` past its last (to cell
/// `n + e` with the back: the right halo of the 3-point kernels, an LCS
/// row's last column). Parts of one sweep run in ascending order over the
/// same `scratch`, which carries the ring between them.
///
/// `kern` computes in its register form, and the codegen context is the
/// caller's: baseline x86-64 for `Packs`, a [`crate::t1d_avx2`] sandwich
/// for `Ymm` and `Zmm`. `REGS` lets the steady state keep its ring in
/// registers (what only the `std::arch` forms have); `COUNT` enables
/// reorganization-instruction accounting (see [`tempora_simd::count`]) in
/// the steady state, where the paper states its budget.
///
/// # Panics
/// Panics if `s` is illegal for the kernel, when `n` cells cannot host the
/// sweep (`n + e ≤ VL·s`: run scalar steps instead), when `xs` leaves
/// `1 ..= x_max`, or when `scratch` was allocated for another stride.
#[inline(always)]
pub fn sweep_body<T, const VL: usize, const COUNT: bool, const REGS: bool, K>(
    a: &mut [T],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<T, VL>,
    xs: RangeInclusive<usize>,
) where
    T: Scalar,
    K: Line<T, VL>,
{
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    let x_max = match VL.checked_mul(s) {
        Some(reach) if reach < n + K::MIN_STRIDE - 1 => n + K::MIN_STRIDE - 1 - reach,
        _ => panic!("{n} cells cannot host the sweep at stride {s}: run scalar steps"),
    };
    let (x0, x1) = xs.into_inner();
    assert!(
        1 <= x0 && x0 <= x1 && x1 <= x_max,
        "anchors {x0}..={x1} of 1..={x_max}"
    );
    let Scratch1d { ring, o_prev } = scratch;
    assert_eq!(ring.len(), s + 1, "scratch of another stride");
    if x0 == 1 {
        assert_eq!(first, 0, "the front reads from the left boundary");
        // The ring at the front's first anchor 1-(VL-1)·s: V(j) for the
        // j whose lane 0 lies at cell u = 0 ..= s (Algorithm 3 lines 5-7),
        // every level above it at a cell ≤ 0, as is all of O(j).
        let (boundary, mut slot) = (a[0], (VL - 1) % (s + 1));
        for &bottom in &a[..=s] {
            ring[slot] = Pack::splat(boundary).replace(0, bottom);
            slot = if slot == s { 0 } else { slot + 1 };
            // Off the hot path: records only into an active counting session.
            count::record(Op::Gather, 1);
        }
        *o_prev = masked_end(a, 0, n, kern, s, ring, Pack::splat(boundary), true);
    }
    *o_prev = kern.steady::<COUNT, REGS>(a, first, s, ring, *o_prev, x0, x1);
    if x1 == x_max {
        *o_prev = masked_end(a, first, n, kern, s, ring, *o_prev, false);
    }
}

/// `$body` once per ring slot `$k = 0, 1, …, R - 1`, written out: the
/// unroll [`ring_sweep`]'s register ring rests on is the source's, not
/// LLVM's, whose threshold once kept the sixteen-slot ring of `s = 15`
/// rolled and on the stack. The guards on the constant `R` fold away.
macro_rules! for_each_slot {
    ($R:ident, $k:ident => $body:block) => {
        for_each_slot!(@ $R, $k, $body, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@ $R:ident, $k:ident, $body:block, $($slot:literal)*) => {$(
        if $slot < $R {
            let $k: usize = $slot;
            $body
        }
    )*};
}

// `for_each_slot!` writes out exactly the slots of the widest ring.
const _: () = assert!(RING_CAP == 17);

/// The steady-state body of the 3-point kernels, written once. `R = s + 1`
/// is the ring length as a constant: whole chunks of `R` iterations run
/// unrolled with the ring
/// in a local `[L::V; R]` whose every index is a compile-time constant, so
/// each slot is a register — iteration `x+k` reads `V(x+k-1)`, `V(x+k)`,
/// `V(x+k+1)` from `r[k]`, `r[(k+1) % R]`, `r[(k+2) % R]` and overwrites
/// the dead `r[k]` with the `V(x+k+s)` it produces (`x+k+s ≡ x+k-1 mod R`),
/// which leaves `r[k] = V(x+R-1+k)`: the entry layout of the next chunk.
/// The rolled loop below it indexes the ring in memory (`V(x-1)`, `V(x)`
/// carried in registers, indices tracked incrementally: one vector load
/// and one vector store per output vector) and serves the `< R` remainder
/// iterations — and, as `R = 0`, whole sweeps.
// Justification: [`Line::steady`]'s contract, plus the register form and kernel it is called on.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn ring_sweep<const R: usize, const VL: usize, const COUNT: bool, K, L>(
    isa: L,
    a: &mut [f64],
    first: usize,
    kern: &K,
    s: usize,
    ring: &mut [Pack<f64, VL>],
    o_prev: Pack<f64, VL>,
    x0: usize,
    x_max: usize,
) -> Pack<f64, VL>
where
    K: Kernel1d,
    L: F64Lanes<VL>,
{
    let rlen = s + 1;
    assert!(x0 >= 1 && rlen == ring.len() && (R == 0 || R == rlen));
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
    let mut i = 0;
    if R > 0 {
        // Slot of V(x0-1): r[k] = V(x0-1+i+k), and whole chunks leave the
        // rotation as it is.
        let rot = (x0 - 1) % R;
        let mut r = [o_prev; R];
        // Loops this short LLVM unrolls itself (writing them out as well
        // moves the four-lane chunks' register allocation for nothing).
        for k in 0..R {
            r[k] = isa.load(ring[(rot + k) % R]);
        }
        while i + R <= n {
            for_each_slot!(R, k => {
                let west = if K::IS_GS { o_prev } else { r[k] };
                let nb = (west, r[(k + 1) % R], r[(k + 2) % R]);
                // SAFETY: `i + k < i + R ≤ n`, and `n - 1 + VL·s < a.len()`
                // by the hoisted assertion above.
                (o_prev, r[k]) =
                    unsafe { ring_step::<VL, COUNT, K, L>(isa, &kern, a, i + k, s, nb) };
            });
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
        // SAFETY: `i < n`, and `n - 1 + VL·s < a.len()` by the hoisted
        // assertion above.
        (o_prev, v) = unsafe { ring_step::<VL, COUNT, K, L>(isa, &kern, a, i, s, (west, v0, vp1)) };
        // V(x+s) reuses the dead V(x-1) slot ((x+s) ≡ (x-1) mod s+1).
        ring[im1] = isa.store(v);
        vm1 = v0;
        v0 = vp1;
        im1 = if im1 + 1 == rlen { 0 } else { im1 + 1 };
        ip1 = if ip1 + 1 == rlen { 0 } else { ip1 + 1 };
    }
    isa.store(o_prev)
}

/// One iteration of [`ring_sweep`] at window index `i` (`a[i]` is the cell
/// of its anchor): the kernel's fused tree on the operands
/// `(west, V(x), V(x+1))`; the finished top lane `a[t+VL][x]` is stored
/// (Algorithm 3 line 12), and `V(x+s)` — one rotate, one blend of the
/// fresh bottom `a[i + VL·s]` (lines 13-14) — returned with `O(x)`.
///
/// A function and not a closure because it must carry
/// `#[inline(always)]`: a closure is inlined only while LLVM's budget
/// lasts, and once the `s = 14..=16` arms joined the eight-lane sandwich
/// it was not: 272 call sites in the sandwich, which then ran at the
/// speed of the libm `fma` cliff.
///
/// # Safety
/// `i + VL·s < a.len()`.
#[inline(always)]
unsafe fn ring_step<const VL: usize, const COUNT: bool, K: Kernel1d, L: F64Lanes<VL>>(
    isa: L,
    kern: &K,
    a: &mut [f64],
    i: usize,
    s: usize,
    (west, v0, vp1): (L::V, L::V, L::V),
) -> (L::V, L::V) {
    let o = kern.pack(isa, west, v0, vp1);
    if COUNT {
        count::record_output(1);
        count::record(Op::ScalarExtract, 1);
        count::record(Op::CrossLane, 1); // vrotate
        count::record(Op::InLane, 1); // vblend
        count::record(Op::ScalarInsert, 1);
    }
    // SAFETY: `i < i + VL·s < a.len()` by the contract.
    unsafe {
        *a.get_unchecked_mut(i) = isa.top(o);
        (o, isa.shift_up_insert(o, *a.get_unchecked(i + VL * s)))
    }
}

/// The widest ring `ring_sweep` writes out (`for_each_slot!`): the 1-D
/// kinds run strides up to 16. An LCS band's ring is `s + 1` vectors at
/// any stride.
pub const RING_CAP: usize = 17;

/// The masked steady iterations of one end of a sweep: the front's
/// anchors `1-(VL-1)·s ..= 0` (`front`, after the ring fill) or the back's
/// `x_max+1 ..= n`, each an iteration of the rolled ring ([`Line::update`],
/// the top-lane store, one rotate and one blend) whose lanes with a cell
/// outside `1 ..= n` take the boundary by one select: `a[0]` at the front,
/// `a[n + e]` at the back (the 3-point kernels' right halo). At the front
/// lanes `0..q` lie inside for the `s` anchors whose lane 0 lies in
/// `((q-1)·s, q·s]`, at the back lanes `q..VL` for those in
/// `(n + (q-1)·s, n + q·s]`. The front reads cells `0 ..= VL·s` and stores
/// nothing (its anchors lie below 1); every bottom the back would load
/// lies past `n + e`: the halo. Returns the last output vector.
// Justification: `sweep_body`'s window, extent, kernel, stride and carried state, and which end.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn masked_end<T: Scalar, const VL: usize, K: Line<T, VL>>(
    a: &mut [T],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    ring: &mut [Pack<T, VL>],
    o_prev: Pack<T, VL>,
    front: bool,
) -> Pack<T, VL> {
    // By value: the coefficient splats hoist.
    let (kern, rlen, top) = (*kern, s + 1, (VL - 1) * s);
    let isa = kern.isa();
    // Anchor x runs as the cell of its lane 0, u = x + top: V(x) sits in
    // slot (u + VL - 1) % (s+1), which is x's modulo s+1 for x ≥ 0.
    let (base, q0, mut u) = if front {
        (0, 1, 1)
    } else {
        (n, 0, n + K::MIN_STRIDE - s)
    };
    let edge = if front { 0 } else { n + K::MIN_STRIDE - 1 } - first;
    let boundary = a[edge];
    let (bnd, mut o_prev) = (isa.splat(boundary), isa.load(o_prev));
    let mut im1 = (u + VL - 2) % rlen;
    let mut vm1 = isa.load(ring[im1]);
    for q in q0..VL {
        let inside = Mask::lanes(if front { 0..q } else { q..VL });
        for u in u..=base + q * s {
            let i0 = if im1 + 1 == rlen { 0 } else { im1 + 1 };
            let ip1 = if i0 + 1 == rlen { 0 } else { i0 + 1 };
            let (v0, vp1) = (isa.load(ring[i0]), isa.load(ring[ip1]));
            let o = isa.select(inside, kern.update(u, o_prev, vm1, v0, vp1), bnd);
            let bottom = if front {
                a[u + s]
            } else {
                a[u - top - first] = isa.top(o);
                boundary
            };
            // V(x+s) reuses the dead V(x-1) slot ((x+s) ≡ (x-1) mod s+1).
            let v = isa.shift_up_insert(o, bottom);
            ring[im1] = isa.store(v);
            (o_prev, vm1, im1) = (o, v0, i0);
        }
        u = base + q * s + 1;
    }
    isa.store(o_prev)
}

/// The cells `xs` of one in-place scalar time step of a 3-point kernel
/// (degenerate tiles and the `T mod VL` remainder steps), bit-identical to
/// the double-buffered reference: for Jacobi the old west value is carried
/// in a register so a single array suffices; for Gauss-Seidel in-place
/// *is* the definition. `a` is a window of the
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::run_whole;
    use crate::kernels::{GsKern1d, JacobiKern1d};
    use tempora_grid::{fill_random_1d, Boundary, Grid1};
    use tempora_stencil::reference;
    use tempora_stencil::{Gs1dCoeffs, Heat1dCoeffs};

    fn random_grid(n: usize, seed: u64, b: f64) -> Grid1<f64> {
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(b));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        g
    }

    /// `steps` levels of `kern`, whole sweeps at `VL` lanes in `Packs`, on a
    /// copy of `grid`, whatever the host.
    fn packs<const VL: usize, const COUNT: bool, K: Kernel1d>(
        grid: &Grid1<f64>,
        kern: &K,
        steps: usize,
        s: usize,
    ) -> Grid1<f64> {
        assert_eq!(steps % VL, 0);
        let (mut g, n) = (grid.clone(), grid.n());
        let mut sc = Scratch1d::<f64, VL>::new(s);
        for _ in 0..steps / VL {
            let (a, form) = (g.data_mut(), Form(*kern, Packs));
            sweep_body::<f64, VL, COUNT, false, _>(a, 0, n, &form, s, &mut sc, 1..=n + 1 - VL * s);
        }
        g
    }

    #[test]
    fn jacobi_single_tile_matches_reference() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for &n in &[8usize, 9, 16, 31, 64, 100, 127] {
            for s in 2..=7 {
                let g = random_grid(n, 42 + n as u64, 0.5);
                let ours = run_whole(Engine::Portable, &g, &kern, 4, s);
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
            let ours = run_whole(Engine::Portable, &g, &kern, steps, 3);
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
            let ours = run_whole(Engine::Portable, &g, &kern, 8, 4); // needs n >= 16 for vector path
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
            let ours = packs::<8, false, _>(&g, &kern, 16, 2);
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
                let ours = run_whole(Engine::Portable, &g, &kern, 4, s);
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
            let ours = run_whole(Engine::Portable, &g, &kern, steps, 7); // the paper's s = 7
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
        let _ = run_whole(Engine::Portable, &g, &kern, 4, 1);
    }

    #[test]
    fn nonzero_boundary_is_respected() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let g = random_grid(40, 5, 2.5);
        let ours = run_whole(Engine::Portable, &g, &kern, 12, 2);
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
        let _ = packs::<4, true, _>(&g, &kern, 4, 7);
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
