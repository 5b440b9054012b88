//! Skewed-band (parallelogram) execution of the 1-D Gauss-Seidel engine —
//! the building block of the paper's parallel GS runs (§3.4:
//! "we utilize parallelogram tiling for all space dimensions").
//!
//! # Geometry and staircase invariants
//!
//! A *band* advances `VL` time levels. Under parallelogram tiling with
//! slope −1, the tile anchored at `[xl, xr]` (its level-1 window) updates,
//! at local level `k ∈ 1..=VL`, the window `x ∈ [xl-(k-1), xr-(k-1)]`
//! (clamped to the domain `[1, n]`) — a parallelogram leaning left in
//! `(t, x)` space. Executing the blocks of one band in ascending `x`
//! order (bands pipelined in wavefront order, see `tempora-tiling`)
//! maintains the **staircase invariant** on the single in-place array:
//!
//! * when a tile starts, every position `p ≥ xl` still holds the
//!   band-base level `t`;
//! * position `xl-k` (left of the tile) holds level `t+k` — exactly the
//!   *newest* west operand level `k` needs at its window edge;
//! * inside the tile, position `xr-k+2` holds level `t+k-1` when level
//!   `k`'s rightmost point reads it — the *old* east operand — because
//!   level `k`'s window stops one short of level `k-1`'s.
//!
//! No halo buffers are exchanged: the array itself carries every
//! inter-tile value. This module provides the scalar banded executor
//! (also the oracle) and the temporally vectorized one; the vector
//! algebra is *identical* to the rectangular engine — the skew only
//! re-shapes the prologue/steady/epilogue ranges, which is the paper's
//! point that the scheme composes with blocking by "only changing the
//! loop boundary conditions".
//!
//! # One source, two codegen contexts
//!
//! [`band_scalar_gs`] and the band prologue/epilogue are
//! `#[inline(always)]`: the portable executors instantiate them for
//! baseline x86-64, and the `*_avx2` executors instantiate the same
//! source again inside `#[target_feature(enable = "avx2,fma")]` band
//! sandwiches — including the scalar fallback of edge and narrow bands.
//! Outside a feature context every `f64::mul_add` is a call into libm's
//! `fma`; inside it is one `vfmadd` (both exactly rounded, so results do
//! not change). `cargo xtask audit` (rule `phase-inline`) guards the
//! attributes.

use crate::kernels::Kernel1d;
use crate::t1d::RING_CAP;
use tempora_simd::Pack;

/// Maximum space stride the banded executors support (ring capacity
/// minus the produced slot).
pub const MAX_BAND_STRIDE: usize = RING_CAP - 1;

/// True when the skewed tile anchored at `[xl, xr]` hosts the vector
/// steady state: interior (`xl > VL`, `xr ≤ n`) and wide enough for the
/// prologue triangles plus at least one steady-state column. Edge or
/// narrow tiles run the scalar band instead (identical results). Shared
/// with the 2-D/3-D banded executors and with the tiling layer's
/// engine-resolution honesty check.
#[inline]
pub fn vector_band_shape<const VL: usize>(xl: usize, xr: usize, n: usize, s: usize) -> bool {
    let width = (xr + 1).saturating_sub(xl);
    xl > VL && xr <= n && width >= (VL + 1) * s + VL
}

/// One scalar skewed band: advance levels `1..=vl` over the shifting
/// windows `[xl-(k-1), xr-(k-1)] ∩ [1, n]`, in place.
#[inline(always)]
pub fn band_scalar_gs<K: Kernel1d>(
    a: &mut [f64],
    xl: usize,
    xr: usize,
    vl: usize,
    n: usize,
    kern: &K,
) {
    debug_assert!(K::IS_GS, "banded skewed execution is for Gauss-Seidel");
    for k in 1..=vl {
        let lo = xl.saturating_sub(k - 1).max(1);
        let hi = (xr + 1).saturating_sub(k).min(n);
        for x in lo..=hi {
            a[x] = kern.scalar(a[x - 1], a[x - 1], a[x], a[x + 1]);
        }
    }
}

/// One temporally vectorized skewed band (Gauss-Seidel), bit-identical to
/// [`band_scalar_gs`].
///
/// Interior tiles (`xl > VL`, `xr ≤ n`, width large enough) run the
/// vector schedule; domain-edge or narrow tiles fall back to the scalar
/// band (identical results).
pub fn band_temporal_gs<const VL: usize, K: Kernel1d>(
    a: &mut [f64],
    xl: usize,
    xr: usize,
    n: usize,
    s: usize,
    kern: &K,
) {
    debug_assert!(K::IS_GS);
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    if !vector_band_shape::<VL>(xl, xr, n, s) {
        band_scalar_gs(a, xl, xr, VL, n, kern);
        return;
    }
    let (mut ring, mut o_prev, x_start, x_max) = band_prologue::<VL, K>(a, xl, xr, s, kern);

    // ------------------------------------------------------------------
    // Steady state — identical algebra to the rectangular engine; only
    // the finished top lane touches the array.
    // ------------------------------------------------------------------
    let rlen = s + 1;
    for x in x_start..=x_max {
        let v0 = ring[x % rlen];
        let vp1 = ring[(x + 1) % rlen];
        let o = kern.pack::<VL>(o_prev, v0, vp1);
        a[x] = o.top();
        let bottom = a[x + VL * s];
        // V(x+s) replaces the dead V(x-1) slot ((x+s) ≡ x-1 mod s+1).
        ring[(x + s) % rlen] = o.shift_up_insert(bottom);
        o_prev = o;
    }

    band_epilogue::<VL, K>(a, xr, s, kern, &ring, o_prev, x_max);
}

/// Phase 1 of a temporal band: the scalar prologue triangles plus the
/// initial ring `V(x_start) ..= V(x_start+s)` and the previous output
/// vector `O(x_start-1)`. Returns `(ring, o_prev, x_start, x_max)`; ring
/// slot `j % (s+1)` holds `V(j)`. One source for the portable steady state
/// and the AVX2 one ([`band_temporal_gs_avx2`], which instantiates it
/// under its own ISA), so both bands seed the §3.4 recurrence
/// identically. Callers must have checked [`vector_band_shape`].
#[inline(always)]
fn band_prologue<const VL: usize, K: Kernel1d>(
    a: &mut [f64],
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
) -> ([Pack<f64, VL>; RING_CAP], Pack<f64, VL>, usize, usize) {
    // Steady-state anchors: O(x) lane i writes level i+1 at
    // x + (VL-1-i)·s; lane VL-1 binds the left end (x ≥ xl-(VL-1)) and
    // the bottom fill x + VL·s ≤ xr+1 binds the right end.
    let x_start = xl - (VL - 1);
    let x_max = xr + 1 - VL * s;
    debug_assert!(x_max >= x_start);

    // ------------------------------------------------------------------
    // Prologue: level k scalar over [xl-(k-1), x_start+(VL-k)·s], the
    // prefix the initial gather below needs. In-place reads are valid by
    // the staircase invariants (see module docs) — with one exception:
    // the *last* write of pass k lands on x_start+(VL-k)·s, which still
    // holds the level-(k-1) value that lane k-1 of V(x_start) needs, so
    // that value is stashed in `saved` just before each pass.
    // ------------------------------------------------------------------
    let mut saved = [0.0f64; MAX_BAND_STRIDE];
    assert!(VL <= saved.len());
    for k in 1..VL {
        saved[k - 1] = a[x_start + (VL - k) * s];
        let lo = xl - (k - 1);
        let hi = x_start + (VL - k) * s;
        for x in lo..=hi {
            a[x] = kern.scalar(a[x - 1], a[x - 1], a[x], a[x + 1]);
        }
    }

    // ------------------------------------------------------------------
    // Initial ring V(x_start) ..= V(x_start+s) and O(x_start-1), gathered
    // from the in-place staircase (plus the stashed values for the first
    // vector): every lane value is the most recent surviving write.
    // ------------------------------------------------------------------
    let rlen = s + 1;
    let mut ring = [Pack::<f64, VL>::splat(0.0); RING_CAP];
    assert!(rlen <= ring.len());
    ring[x_start % rlen] = Pack::from_fn(|i| {
        if i == VL - 1 {
            a[x_start] // staircase: holds level VL-1 from the left tile
        } else {
            saved[i] // level i at x_start + (VL-1-i)·s, pre-clobber
        }
    });
    for j in 1..=s {
        let x = x_start + j;
        ring[x % rlen] = Pack::from_fn(|i| a[x + (VL - 1 - i) * s]);
    }
    let o_prev = Pack::<f64, VL>::from_fn(|i| a[x_start - 1 + (VL - 1 - i) * s]);
    (ring, o_prev, x_start, x_max)
}

/// Phase 3 of a temporal band: materialize the register-resident levels
/// back into the array staircase, then finish each level scalar,
/// ascending. `ring` must hold `V(j)` at slot `j % (s+1)` for
/// `j ∈ x_max ..= x_max+s` and `o_prev` must be `O(x_max)`, as left
/// behind by the steady state.
#[inline(always)]
fn band_epilogue<const VL: usize, K: Kernel1d>(
    a: &mut [f64],
    xr: usize,
    s: usize,
    kern: &K,
    ring: &[Pack<f64, VL>],
    o_prev: Pack<f64, VL>,
    x_max: usize,
) {
    let rlen = s + 1;
    for j in x_max + 1..=x_max + s {
        let v = ring[j % rlen];
        for i in 1..VL {
            a[j + (VL - 1 - i) * s] = v.extract(i);
        }
    }
    // O(x_max): lane i = level i+1 at x_max + (VL-1-i)·s (lane VL-1, the
    // level-VL value at x_max, is already in the array).
    for i in 0..VL - 1 {
        a[x_max + (VL - 1 - i) * s] = o_prev.extract(i);
    }

    // Scalar completion: level k resumes right after the vector frontier
    // x_max + (VL-k)·s and runs to its window end xr+1-k.
    for k in 1..=VL {
        let lo = x_max + (VL - k) * s + 1;
        let hi = xr + 1 - k;
        for x in lo..=hi {
            a[x] = kern.scalar(a[x - 1], a[x - 1], a[x], a[x + 1]);
        }
    }
}

/// One temporally vectorized skewed band with the hand-scheduled AVX2
/// steady state — the rectangular tile's own body in `crate::t1d_avx2`,
/// started at this band's anchor, with the previous *output* vector fed
/// back as the newest-west operand from a register (§3.4). Prologue,
/// epilogue and the scalar fallback of edge or narrow tiles are the
/// source of [`band_temporal_gs`], compiled under this band's ISA, so
/// results stay bit-identical to it and to [`band_scalar_gs`]. Panics
/// without AVX2+FMA.
#[cfg(target_arch = "x86_64")]
pub fn band_temporal_gs_avx2(
    a: &mut [f64],
    xl: usize,
    xr: usize,
    n: usize,
    s: usize,
    kern: &crate::kernels::GsKern1d,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    assert!(
        (crate::kernels::GsKern1d::MIN_STRIDE..=MAX_BAND_STRIDE).contains(&s),
        "stride {s} illegal for the banded AVX2 executor"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::band_gs(a, xl, xr, n, s, kern) }
}

/// [`band_scalar_gs`] compiled for AVX2+FMA (scalar bands of a workspace
/// that resolved the AVX2 engine). Panics without AVX2+FMA.
#[cfg(target_arch = "x86_64")]
pub fn band_scalar_gs_avx2<K: Kernel1d>(
    a: &mut [f64],
    xl: usize,
    xr: usize,
    vl: usize,
    n: usize,
    kern: &K,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::band_scalar(a, xl, xr, vl, n, kern) }
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::{band_epilogue, band_prologue, band_scalar_gs, vector_band_shape};
    use crate::kernels::{GsKern1d, Kernel1d};
    use crate::t1d_avx2::imp::steady_ring;

    /// The sandwich of one AVX2 band — shape check, scalar fallback or
    /// prologue → steady state → epilogue — as **one** AVX2+FMA codegen
    /// context: the `#[inline(always)]` phase functions are instantiated
    /// here, under this fn's features.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_gs(
        a: &mut [f64],
        xl: usize,
        xr: usize,
        n: usize,
        s: usize,
        kern: &GsKern1d,
    ) {
        const VL: usize = 4;
        if !vector_band_shape::<VL>(xl, xr, n, s) {
            band_scalar_gs(a, xl, xr, VL, n, kern);
            return;
        }
        let (mut ring, o_prev, x_start, x_max) = band_prologue::<VL, GsKern1d>(a, xl, xr, s, kern);
        // The tile's steady state, started at this band's anchor.
        // SAFETY: AVX2+FMA availability is this fn's own caller contract.
        let o_prev = unsafe { steady_ring(a, kern, s, &mut ring, o_prev, x_start, x_max) };
        band_epilogue::<VL, GsKern1d>(a, xr, s, kern, &ring, o_prev, x_max);
    }

    /// [`band_scalar_gs`] instantiated in an AVX2+FMA codegen context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_scalar<K: Kernel1d>(
        a: &mut [f64],
        xl: usize,
        xr: usize,
        vl: usize,
        n: usize,
        kern: &K,
    ) {
        band_scalar_gs(a, xl, xr, vl, n, kern);
    }
}

/// Decompose one band of height `vl` into skewed blocks of anchor width
/// `block` and execute them left to right (the sequential schedule; the
/// parallel executor in `tempora-tiling`/`tempora-parallel` runs the same
/// blocks in pipelined wavefront order).
pub fn band_sweep_gs<const VL: usize, K: Kernel1d>(
    a: &mut [f64],
    n: usize,
    block: usize,
    s: usize,
    kern: &K,
    temporal: bool,
) {
    let span = n + VL - 1; // anchors must reach n + vl - 1 so the last
                           // level's window still covers x = n
    let nblocks = span.div_ceil(block);
    for i in 0..nblocks {
        let xl = i * block + 1;
        let xr = ((i + 1) * block).min(span);
        if temporal {
            band_temporal_gs::<VL, K>(a, xl, xr, n, s, kern);
        } else {
            band_scalar_gs(a, xl, xr, VL, n, kern);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::GsKern1d;
    use tempora_grid::{fill_random_1d, Boundary, Grid1};
    use tempora_stencil::reference;
    use tempora_stencil::Gs1dCoeffs;

    fn run_banded(
        g: &Grid1<f64>,
        kern: &GsKern1d,
        steps: usize,
        block: usize,
        s: usize,
        temporal: bool,
    ) -> Grid1<f64> {
        const VL: usize = 4;
        let mut g = g.clone();
        let n = g.n();
        let a = g.data_mut();
        for _ in 0..steps / VL {
            band_sweep_gs::<VL, _>(a, n, block, s, kern, temporal);
        }
        for _ in 0..steps % VL {
            crate::t1d::scalar_step_inplace(a, n, kern);
        }
        g
    }

    #[test]
    fn scalar_banded_sweep_matches_reference() {
        let c = Gs1dCoeffs::classic(0.25);
        let kern = GsKern1d(c);
        for &(n, block) in &[(64usize, 16usize), (100, 25), (200, 37), (61, 64), (33, 5)] {
            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.4));
            fill_random_1d(&mut g, n as u64, -1.0, 1.0);
            for steps in [4usize, 8, 10] {
                let ours = run_banded(&g, &kern, steps, block, 2, false);
                let gold = reference::gs1d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "n={n} block={block} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn temporal_banded_sweep_matches_reference() {
        let c = Gs1dCoeffs::new(0.37, 0.4, 0.23);
        let kern = GsKern1d(c);
        for &(n, block, s) in &[
            (256usize, 64usize, 2usize),
            (300, 75, 3),
            (512, 128, 7),
            (200, 50, 2),
            (1000, 128, 7),
        ] {
            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.3));
            fill_random_1d(&mut g, (n + s) as u64, -1.0, 1.0);
            for steps in [4usize, 8, 12] {
                let ours = run_banded(&g, &kern, steps, block, s, true);
                let gold = reference::gs1d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "n={n} block={block} s={s} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn temporal_band_falls_back_on_narrow_blocks() {
        let c = Gs1dCoeffs::classic(0.2);
        let kern = GsKern1d(c);
        let mut g = Grid1::new(64, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g, 3, -1.0, 1.0);
        // block = 8 is too narrow for the vector path with s = 2: every
        // tile falls back to scalar and the sweep is still exact.
        let ours = run_banded(&g, &kern, 8, 8, 2, true);
        let gold = reference::gs1d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_band_matches_scalar_oracle_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        const VL: usize = 4;
        let c = Gs1dCoeffs::new(0.37, 0.4, 0.23);
        let kern = GsKern1d(c);
        for &(n, block, s) in &[
            (256usize, 64usize, 2usize),
            (300, 75, 3),
            (512, 128, 7),
            (1000, 128, 7),
            (64, 8, 2), // every tile narrow: pure scalar fallback
        ] {
            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.3));
            fill_random_1d(&mut g, (n + s) as u64, -1.0, 1.0);
            for steps in [4usize, 8, 12] {
                let mut ours = g.clone();
                {
                    let nn = ours.n();
                    let a = ours.data_mut();
                    let span = nn + VL - 1;
                    for _ in 0..steps / VL {
                        for i in 0..span.div_ceil(block) {
                            let xl = i * block + 1;
                            let xr = ((i + 1) * block).min(span);
                            band_temporal_gs_avx2(a, xl, xr, nn, s, &kern);
                        }
                    }
                    for _ in 0..steps % VL {
                        crate::t1d::scalar_step_inplace(a, nn, &kern);
                    }
                }
                let gold = reference::gs1d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "n={n} block={block} s={s} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn boundary_values_respected() {
        let c = Gs1dCoeffs::classic(0.3);
        let kern = GsKern1d(c);
        let mut g = Grid1::new(400, 1, Boundary::Dirichlet(1.75));
        fill_random_1d(&mut g, 8, -1.0, 1.0);
        let ours = run_banded(&g, &kern, 8, 100, 4, true);
        let gold = reference::gs1d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
        assert_eq!(ours.get(0), 1.75);
        assert_eq!(ours.get(401), 1.75);
    }
}
