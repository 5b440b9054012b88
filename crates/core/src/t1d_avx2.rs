//! Hand-scheduled AVX2 (`std::arch`) variants of the 1-D temporal
//! engines (Jacobi *and* Gauss-Seidel).
//!
//! The portable engine in [`crate::t1d`] leaves instruction selection to
//! LLVM; these variants pin the steady state to the exact AVX instruction
//! mix the paper's §3.3 analysis assumes — `vfmadd231pd` for the stencil,
//! one `vpermpd` (lane-crossing rotate) plus one `vblendpd` (in-lane) for
//! the input-vector production. The ring is a fixed-capacity
//! `[__m256d; 17]` array indexed dynamically, so it lives on the stack:
//! only `V(x-1)`, `V(x)` and the previous output vector are carried in
//! registers. The Gauss-Seidel steady state feeds the previous *output*
//! vector back as the newest-west operand (§3.4).
//!
//! Prologue, epilogue, degenerate fallback and the remainder scalar step
//! are the portable engine's *source* ([`crate::t1d::tile_prologue`] /
//! [`crate::t1d::tile_epilogue`] / [`crate::t1d::scalar_step_inplace`],
//! all `#[inline(always)]`), instantiated a second time inside this
//! module's `#[target_feature(enable = "avx2,fma")]` functions, so the
//! whole tile is compiled for the ISA the plan resolved. Outside a feature
//! context `f64::mul_add` is a call into libm's `fma`; inside it is one
//! `vfmadd`. Both are the exactly-rounded fused operation, so results
//! stay bit-identical to the portable engine (and therefore to the scalar
//! reference) — do not move a phase back out of the feature context.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

use crate::kernels::{GsKern1d, JacobiKern1d, Kernel1d};
use crate::t1d::{self, Scratch1d};
use tempora_grid::Grid1;

/// Maximum supported space stride of the AVX2 path (ring capacity).
pub const MAX_STRIDE: usize = 15;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use tempora_simd::arch::avx2;
    use tempora_simd::Pack;

    /// One whole temporal tile — prologue, AVX2 steady state, epilogue —
    /// in one AVX2+FMA codegen context. Degenerate sizes run the scalar
    /// schedule, same context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_avx2(
        a: &mut [f64],
        n: usize,
        kern: &JacobiKern1d,
        s: usize,
        scratch: &mut Scratch1d<4>,
    ) {
        const VL: usize = 4;
        assert!((JacobiKern1d::MIN_STRIDE..=MAX_STRIDE).contains(&s));
        if n < VL * s {
            for _ in 0..VL {
                t1d::scalar_step_inplace(a, n, kern);
            }
            return;
        }
        // The portable engine's prologue, inlined into this feature
        // context: scalar head triangles plus the initial ring.
        let (ring_init, x_max) = t1d::tile_prologue::<4, JacobiKern1d>(a, n, kern, s, scratch);

        let cw = avx2::splat(kern.0.w);
        let cc = avx2::splat(kern.0.c);
        let ce = avx2::splat(kern.0.e);

        let ring_len = s + 1;
        let mut ring = [avx2::splat(0.0); MAX_STRIDE + 2];
        for (k, slot) in ring_init.iter().enumerate().take(ring_len) {
            ring[k] = avx2::from_pack(*slot);
        }

        let mut vm1 = ring[0];
        let mut v0 = ring[1 % ring_len];
        let mut ip1 = 2 % ring_len;
        let mut im1 = 0usize;
        // SAFETY: every unsafe op in the steady-state loop is an AVX2/FMA
        // intrinsic or `arch::avx2` vocabulary call whose sole
        // precondition is feature availability — discharged by this fn's
        // own `#[target_feature(enable = "avx2,fma")]` caller contract.
        // All grid access (`a[x]`, `a[x + VL·s]`) is checked slice
        // indexing, in bounds because `tile_prologue` established
        // `x_max + VL·s ≤ n + 1` for the non-degenerate `n ≥ VL·s` case.
        unsafe {
            for x in 1..=x_max {
                let vp1 = ring[ip1];
                // w·vm1 + (c·v0 + e·vp1), the same fused tree as the scalar
                // oracle: l.mul_add(w, m.mul_add(c, r*e)).
                let o = avx2::fmadd(vm1, cw, avx2::fmadd(v0, cc, avx2::mul(vp1, ce)));
                // Store the finished top lane a[t+4][x].
                a[x] = avx2::extract_top(o);
                // Produce V(x+s): vpermpd rotate + vblendpd bottom insert.
                let bottom = a[x + VL * s];
                ring[im1] = avx2::shift_up_insert(o, bottom);
                vm1 = v0;
                v0 = vp1;
                im1 = if im1 + 1 == ring_len { 0 } else { im1 + 1 };
                ip1 = if ip1 + 1 == ring_len { 0 } else { ip1 + 1 };
            }
        }

        // Hand the surviving ring back for the shared epilogue.
        let mut back = [Pack::<f64, 4>::splat(0.0); 17];
        for k in 0..ring_len {
            back[k] = avx2::to_pack(ring[k]);
        }
        t1d::tile_epilogue::<4, JacobiKern1d>(a, n, kern, s, scratch, &back, x_max);
    }

    /// One whole Gauss-Seidel temporal tile in one AVX2+FMA codegen
    /// context; see [`tile_avx2`].
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_gs_avx2(
        a: &mut [f64],
        n: usize,
        kern: &GsKern1d,
        s: usize,
        scratch: &mut Scratch1d<4>,
    ) {
        const VL: usize = 4;
        assert!((GsKern1d::MIN_STRIDE..=MAX_STRIDE).contains(&s));
        if n < VL * s {
            for _ in 0..VL {
                t1d::scalar_step_inplace(a, n, kern);
            }
            return;
        }
        let boundary_l = a[0];
        let (ring_init, x_max) = t1d::tile_prologue::<4, GsKern1d>(a, n, kern, s, scratch);

        let cw = avx2::splat(kern.0.w);
        let cc = avx2::splat(kern.0.c);
        let ce = avx2::splat(kern.0.e);

        let ring_len = s + 1;
        let mut ring = [avx2::splat(0.0); MAX_STRIDE + 2];
        for (k, slot) in ring_init.iter().enumerate().take(ring_len) {
            ring[k] = avx2::from_pack(*slot);
        }

        // §3.4: the newest-west operand is the previous output vector.
        let mut o_prev = avx2::from_pack(t1d::gs_initial_output::<4>(boundary_l, s, scratch));
        let mut v0 = ring[1 % ring_len];
        let mut ip1 = 2 % ring_len;
        let mut im1 = 0usize;
        // SAFETY: same contract as `tile_avx2`'s steady state — only
        // feature-gated intrinsics/vocabulary calls (discharged by this
        // fn's `#[target_feature(enable = "avx2,fma")]`), with all grid
        // access through checked indexing (`x_max + VL·s ≤ n + 1` per
        // the prologue).
        unsafe {
            for x in 1..=x_max {
                let vp1 = ring[ip1];
                // w·O(x-1) + (c·v0 + e·vp1), the same fused tree as the
                // scalar oracle: l_new.mul_add(w, m.mul_add(c, r*e)).
                let o = avx2::fmadd(o_prev, cw, avx2::fmadd(v0, cc, avx2::mul(vp1, ce)));
                a[x] = avx2::extract_top(o);
                let bottom = a[x + VL * s];
                ring[im1] = avx2::shift_up_insert(o, bottom);
                o_prev = o;
                v0 = vp1;
                im1 = if im1 + 1 == ring_len { 0 } else { im1 + 1 };
                ip1 = if ip1 + 1 == ring_len { 0 } else { ip1 + 1 };
            }
        }

        let mut back = [Pack::<f64, 4>::splat(0.0); 17];
        for k in 0..ring_len {
            back[k] = avx2::to_pack(ring[k]);
        }
        t1d::tile_epilogue::<4, GsKern1d>(a, n, kern, s, scratch, &back, x_max);
    }

    /// [`t1d::scalar_step_inplace`] instantiated in an AVX2+FMA codegen
    /// context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scalar_step<K: Kernel1d>(a: &mut [f64], n: usize, kern: &K) {
        t1d::scalar_step_inplace(a, n, kern);
    }
}

/// One Heat-1D temporal tile compiled for AVX2+FMA end to end: the
/// portable engine's boundary phases instantiated under the tile's ISA
/// around the hand-scheduled steady state (degenerate `n < VL·s` tiles
/// run the scalar schedule, same context). Panics if AVX2+FMA are
/// unavailable. The tiled layer reaches this through
/// [`crate::engine::KernelSpace`].
#[cfg(target_arch = "x86_64")]
pub fn tile_heat1d_avx2(
    a: &mut [f64],
    n: usize,
    kern: &JacobiKern1d,
    s: usize,
    scratch: &mut Scratch1d<4>,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::tile_avx2(a, n, kern, s, scratch) }
}

/// One GS-1D temporal tile with the AVX2 steady state; see
/// [`tile_heat1d_avx2`].
#[cfg(target_arch = "x86_64")]
pub fn tile_gs1d_avx2(
    a: &mut [f64],
    n: usize,
    kern: &GsKern1d,
    s: usize,
    scratch: &mut Scratch1d<4>,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::tile_gs_avx2(a, n, kern, s, scratch) }
}

/// [`t1d::scalar_step_inplace`] compiled for AVX2+FMA (step remainders
/// and scalar sweeps of a plan that resolved the AVX2 engine). Panics if
/// AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub fn scalar_step_avx2<K: Kernel1d>(a: &mut [f64], n: usize, kern: &K) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::scalar_step(a, n, kern) }
}

/// Run `steps` Heat-1D time steps with the AVX2 steady state; panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_heat1d_avx2(
    grid: &Grid1<f64>,
    kern: &JacobiKern1d,
    steps: usize,
    s: usize,
) -> Grid1<f64> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let n = g.n();
    let mut scratch = Scratch1d::<4>::new(s);
    let a = g.data_mut();
    for _ in 0..steps / 4 {
        tile_heat1d_avx2(a, n, kern, s, &mut scratch);
    }
    for _ in 0..steps % 4 {
        scalar_step_avx2(a, n, kern);
    }
    g
}

/// Run `steps` GS-1D time steps with the AVX2 steady state; panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_gs1d_avx2(grid: &Grid1<f64>, kern: &GsKern1d, steps: usize, s: usize) -> Grid1<f64> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let n = g.n();
    let mut scratch = Scratch1d::<4>::new(s);
    let a = g.data_mut();
    for _ in 0..steps / 4 {
        tile_gs1d_avx2(a, n, kern, s, &mut scratch);
    }
    for _ in 0..steps % 4 {
        scalar_step_avx2(a, n, kern);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::{fill_random_1d, Boundary};
    use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

    #[test]
    fn avx2_engine_matches_reference_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for &n in &[16usize, 63, 200, 1000] {
            for s in 2..=7 {
                for steps in [4usize, 8, 13] {
                    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.4));
                    fill_random_1d(&mut g, (n + s + steps) as u64, -1.0, 1.0);
                    let ours = run_heat1d_avx2(&g, &kern, steps, s);
                    let gold = reference::heat1d(&g, c, steps);
                    assert!(
                        ours.interior_eq(&gold),
                        "n={n} s={s} steps={steps} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn gs1d_avx2_matches_reference_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        let c = Gs1dCoeffs::new(0.4, 0.35, 0.25);
        let kern = GsKern1d(c);
        for &n in &[16usize, 63, 200, 777] {
            for s in 2..=7 {
                for steps in [4usize, 8, 13] {
                    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.3));
                    fill_random_1d(&mut g, (2 * n + s + steps) as u64, -1.0, 1.0);
                    let ours = run_gs1d_avx2(&g, &kern, steps, s);
                    let gold = reference::gs1d(&g, c, steps);
                    assert!(
                        ours.interior_eq(&gold),
                        "n={n} s={s} steps={steps} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
        // Degenerate n < VL·s falls back to the portable tile.
        for n in 1..=15 {
            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.1));
            fill_random_1d(&mut g, n as u64, -1.0, 1.0);
            let ours = run_gs1d_avx2(&g, &kern, 8, 4);
            let gold = reference::gs1d(&g, c, 8);
            assert!(ours.interior_eq(&gold), "n={n}");
        }
    }
}
