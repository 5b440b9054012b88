//! Dimension-Lifting Transpose (DLT) vectorization (paper §2.2;
//! Henretty et al., CC'11).
//!
//! DLT sidesteps the data alignment conflict by *changing the layout*: the
//! interior of length `n = vl·m` is viewed as a `vl × m` matrix (row `k` =
//! elements `k·m .. (k+1)·m`) and transposed, so lane `k` of transformed
//! vector `T(c)` holds `a[k·m + c]`. Spatial neighbours `x ± 1` are then
//! the *whole vectors* `T(c ∓∓ … )` — `T(c-1)` and `T(c+1)` — with no data
//! sharing: the bulk of the sweep runs on full aligned vectors with zero
//! shuffles. Only the two boundary columns need lane shifts
//! ([`Pack::shift_up_insert`] / [`Pack::shift_down_insert`]), and the
//! transpose itself must be paid on entry and exit.
//!
//! The known drawbacks the paper exploits (§2.2, §3.1): the transpose
//! costs `O(n)` each way and must be amortized over many time steps, an
//! extra array is needed, blocking loses a factor `vl` of reuse because
//! the `vl` rows are independent stencils, and DLT cannot express
//! Gauss-Seidel updates at all. This implementation requires `vl | n` and
//! `m ≥ 2` ([`dlt_applicable`]); the plan runs every other size as the
//! multi-load sweeps (documented substitution — the fix-up machinery of
//! the original paper adds nothing to the measured trends).

use tempora_grid::Grid1;
#[cfg(target_arch = "x86_64")]
use tempora_simd::arch::Ymm;
use tempora_simd::{Pack, Packs};
use tempora_stencil::Heat1dCoeffs;

const N: usize = 4;

/// True when the DLT fast path applies to interior length `n`.
pub fn dlt_applicable(n: usize) -> bool {
    n.is_multiple_of(N) && n / N >= 2
}

/// Transpose the interior into DLT layout: `t[c*N + k] = a[1 + k*m + c]`.
#[inline(always)]
fn transpose_in(a: &[f64], t: &mut [f64], m: usize) {
    for c in 0..m {
        for k in 0..N {
            t[c * N + k] = a[1 + k * m + c];
        }
    }
}

/// Transpose back from DLT layout into the interior.
#[inline(always)]
fn transpose_out(t: &[f64], a: &mut [f64], m: usize) {
    for c in 0..m {
        for k in 0..N {
            a[1 + k * m + c] = t[c * N + k];
        }
    }
}

/// One DLT-layout Jacobi step: `dst(c) = S(T(c-1), T(c), T(c+1))` with the
/// two boundary columns assembled by lane shifts against the halo values.
#[inline(always)]
fn step(t: &[f64], dst: &mut [f64], m: usize, c: &Heat1dCoeffs, halo_l: f64, halo_r: f64) {
    // The `m` columns, cut once: with `m ≥ 2` known (`sweeps` asserts
    // it), no column access below carries a bounds check.
    let t = &t.as_chunks::<N>().0[..m];
    let dst = &mut dst.as_chunks_mut::<N>().0[..m];
    let col = |i: usize| Pack(t[i]);
    // Column 0: left neighbour lane k is a[k·m - 1] = lane k-1 of T(m-1),
    // with the true left halo entering lane 0.
    let left = col(m - 1).shift_up_insert(halo_l);
    dst[0] = c.apply_pack(Packs, left, col(0), col(1)).0;
    // Bulk: full vectors, no shuffles at all.
    for (out, w) in dst[1..m - 1].iter_mut().zip(t.windows(3)) {
        *out = c.apply_pack(Packs, Pack(w[0]), Pack(w[1]), Pack(w[2])).0;
    }
    // Column m-1: right neighbour lane k is a[k·m + m] = lane k+1 of T(0),
    // with the true right halo entering lane N-1.
    let right = col(0).shift_down_insert(halo_r);
    dst[m - 1] = c.apply_pack(Packs, col(m - 2), col(m - 1), right).0;
}

/// `steps` DLT-vectorized 1D3P Jacobi sweeps: transpose in, sweep in the
/// lifted layout, transpose out.
///
/// # Panics
/// Panics unless [`dlt_applicable`] holds for the interior length.
pub fn heat1d(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    sweeps(g, c, steps)
}

/// [`heat1d`] compiled for AVX2+FMA: the same source instantiated inside
/// `isa`'s codegen sandwich, where a pack `mul_add` is one `vfmadd`
/// instead of four calls into libm's `fma` (both exactly rounded, so the
/// results are bit-identical).
///
/// # Panics
/// Panics unless [`dlt_applicable`] holds for the interior length.
#[cfg(target_arch = "x86_64")]
pub fn heat1d_avx2(isa: Ymm, g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    isa.run(
        #[inline(always)]
        move || sweeps(g, c, steps),
    )
}

/// The body of [`heat1d`], `#[inline(always)]` so each codegen context
/// gets its own instantiation.
#[inline(always)]
fn sweeps(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    assert_eq!(g.halo(), 1);
    let n = g.n();
    assert!(dlt_applicable(n), "DLT cannot lift {n} points");
    if steps == 0 {
        return g.clone();
    }
    let m = n / N;
    let mut out = g.clone();
    let halo_l = g.get(0);
    let halo_r = g.get(n + 1);

    let mut t0 = vec![0.0f64; n];
    let mut t1 = vec![0.0f64; n];
    transpose_in(g.data(), &mut t0, m);
    for _ in 0..steps {
        step(&t0, &mut t1, m, &c, halo_l, halo_r);
        core::mem::swap(&mut t0, &mut t1);
    }
    transpose_out(&t0, out.data_mut(), m);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::{fill_random, Boundary};
    use tempora_stencil::reference;

    #[test]
    fn transpose_round_trip() {
        let mut g = Grid1::new(24, 1, Boundary::Dirichlet(0.0));
        fill_random(&mut g, 1, -1.0, 1.0);
        let mut t = vec![0.0; 24];
        let mut back = g.clone();
        transpose_in(g.data(), &mut t, 6);
        transpose_out(&t, back.data_mut(), 6);
        assert!(back.interior_eq(&g));
    }

    #[test]
    fn matches_reference_divisible_sizes() {
        let c = Heat1dCoeffs::classic(0.25);
        for &n in &[8usize, 16, 24, 100, 256] {
            for steps in [1usize, 2, 5, 12] {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.7));
                fill_random(&mut g, (n + steps) as u64, -1.0, 1.0);
                let ours = heat1d(&g, c, steps);
                let gold = reference::heat1d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "n={n} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn nonzero_halo_values_enter_boundary_columns() {
        let c = Heat1dCoeffs::classic(0.25);
        let mut g = Grid1::new(16, 1, Boundary::Dirichlet(5.0));
        fill_random(&mut g, 4, -1.0, 1.0);
        let ours = heat1d(&g, c, 4);
        let gold = reference::heat1d(&g, c, 4);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
