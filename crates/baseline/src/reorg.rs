//! Data-reorganization spatial vectorization (paper §2.2).
//!
//! Instead of re-loading overlapping vectors from memory, this scheme
//! loads each input element exactly once with **aligned** vector loads and
//! assembles the shifted neighbour vectors with inter-register shuffles
//! (`palignr`-style concatenate-and-extract, [`Pack::align_pair`]).
//! Memory traffic matches the scalar code; the cost moves into the CPU's
//! shuffle port, which the paper identifies as the potential bottleneck —
//! and the number of shuffles still grows with stencil order, vector
//! length and dimensionality, unlike the temporal scheme's constant.
//!
//! The counted variant feeds the §3.5 instruction-budget comparison: for
//! the 1D3P kernel it performs 2 shuffles per output vector (left and
//! right neighbours; `vl`-aligned blocks make the centre free).

use tempora_grid::Grid1;
use tempora_simd::count::{self, Op};
use tempora_simd::{Pack, Packs};
use tempora_stencil::Heat1dCoeffs;

const N: usize = 4;

/// One data-reorganization 1D3P Jacobi step over blocks of `N` outputs.
///
/// Outputs are produced for block starts `x = 1, 1+N, …`; the two aligned
/// loads per block are `a[x-1 .. x-1+N]` and `a[x-1+N .. x-1+2N]` (the
/// second is reused as the next block's first load).
#[inline(always)]
fn step<const COUNT: bool>(a: &[f64], b: &mut [f64], n: usize, c: &Heat1dCoeffs) {
    let mut x = 1usize;
    // Block-aligned loads relative to x-1 (x-1 is a multiple of N when the
    // interior starts at 1 after one halo cell... in general these loads
    // are *block*-aligned rather than 32-byte-aligned; the shuffle count
    // is what the scheme is about).
    // Both aligned loads of a block must stay inside the slice
    // (`a.len() == n + 2`): the `hi` load touches `x-1+2N-1 <= n+1`.
    if x + 2 * N <= n + 3 {
        let mut lo = Pack::<f64, N>::load(a, x - 1);
        while x + 2 * N <= n + 3 {
            let hi = Pack::<f64, N>::load(a, x - 1 + N);
            if COUNT {
                count::record(Op::VecLoad, 1);
            }
            let l = lo;
            let m = Pack::align_pair(lo, hi, 1);
            let r = Pack::align_pair(lo, hi, 2);
            if COUNT {
                // align by 1 and by 2 on 256-bit f64 lanes: one in-lane
                // (vshufpd-class) + one lane-crossing (vperm2f128-class).
                count::record(Op::InLane, 1);
                count::record(Op::CrossLane, 1);
                count::record_output(1);
            }
            c.apply_pack(Packs, l, m, r).store(b, x);
            if COUNT {
                count::record(Op::VecStore, 1);
            }
            lo = hi;
            x += N;
        }
    }
    for x in x..=n {
        b[x] = c.apply(a[x - 1], a[x], a[x + 1]);
    }
}

/// `steps` sweeps of [`step`]; `#[inline(always)]` so each codegen
/// context gets its own instantiation.
#[inline(always)]
fn sweeps<const COUNT: bool>(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    assert_eq!(g.halo(), 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let n = g.n();
    for _ in 0..steps {
        step::<COUNT>(cur.data(), next.data_mut(), n, &c);
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `steps` data-reorganization 1D3P Jacobi sweeps.
pub fn heat1d(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    sweeps::<false>(g, c, steps)
}

/// Counted variant of [`heat1d`] for the reorganization-budget ablation.
pub fn heat1d_counted(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    sweeps::<true>(g, c, steps)
}

/// [`heat1d`] compiled for AVX2+FMA: the same source instantiated inside
/// a `#[target_feature]` function, where a pack `mul_add` is one `vfmadd`
/// instead of four calls into libm's `fma` (both exactly rounded, so the
/// results are bit-identical). Panics if AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub fn heat1d_avx2(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { sweeps_avx2(g, c, steps) }
}

/// [`sweeps`] instantiated in an AVX2+FMA codegen context.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available
/// (`tempora_simd::arch::avx2_available()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sweeps_avx2(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    sweeps::<false>(g, c, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::{fill_random_1d, Boundary};
    use tempora_stencil::reference;

    #[test]
    fn matches_reference() {
        let c = Heat1dCoeffs::classic(0.25);
        for &n in &[3usize, 4, 7, 16, 41, 128] {
            for steps in [0usize, 1, 2, 9] {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(1.0));
                fill_random_1d(&mut g, n as u64 + steps as u64, -1.0, 1.0);
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
    fn shuffle_budget_is_two_per_output_vector() {
        let c = Heat1dCoeffs::classic(0.25);
        let mut g = Grid1::new(4096, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g, 9, -1.0, 1.0);
        let session = tempora_simd::count::Session::start();
        let _ = heat1d_counted(&g, c, 4);
        let counts = session.finish();
        assert!(counts.output_vectors > 0);
        // 1 in-lane + 1 lane-crossing shuffle per output vector (paper
        // §3.5: "1 lane-crossing and 2 in-lane" counting the blend of the
        // store path; our variant stores directly).
        assert_eq!(counts.in_lane, counts.output_vectors);
        assert_eq!(counts.cross_lane, counts.output_vectors);
        // Exactly one new aligned load per output vector.
        assert_eq!(counts.vec_load, counts.output_vectors);
    }
}
