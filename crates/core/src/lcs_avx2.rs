//! The `std::arch` engines of the LCS band sweep (paper §3.4): the codegen
//! sandwiches around [`crate::lcs`] — AVX2 at the paper's integer width
//! `vl = 8`, AVX-512 at sixteen lanes — and the resolution of an LCS run.
//!
//! The sweep's steady state is one `#[inline(always)]` *source*, generic
//! over the lane vocabulary it computes in ([`tempora_simd::I32Lanes`]).
//! The portable engine instantiates it for baseline x86-64 with `Packs`;
//! this module instantiates it a second time, with [`Ymm`], inside a
//! `#[target_feature(enable = "avx2")]` function, where the vocabulary is
//! the instruction mix the paper's analysis assumes — `vpcmpeqd` for the
//! character-equality mask (the `B` load from the lane layout folded in),
//! `vpaddd`/`vpmaxsd` for the two update candidates, `vpblendvb` for the
//! equality blend, and one `vpermd` (lane-crossing rotate) plus one
//! `vpblendd` (in-lane) per produced vector for the input production —
//! and a third time, with [`Zmm`] at sixteen lanes, inside
//! `#[target_feature(enable = "avx512f,avx2,fma")]`: `vpcmpeqd` into a
//! mask register, the blend folded into a masked `vpsubd`, and one
//! `valignd` per produced vector. At the strides in [`REGISTER_STRIDES`]
//! the input-vector ring lives in registers and `B(y)` is one contiguous
//! load; wider strides index the ring in scratch and load the characters
//! strided. Results are bit-identical to the portable engine and
//! therefore to the scalar DP.
//!
//! Use [`crate::lcs::sweep`] (or a `tempora_plan::Plan`) for transparent
//! runtime dispatch; [`resolve`] is how a run picks its engine.

use crate::engine::{Engine, Select};
use crate::lcs::{bands_fit, wide_pays, VL, WIDE_VL};
#[cfg(target_arch = "x86_64")]
use {
    crate::lcs::{BLanes, ScratchLcs},
    core::ops::RangeInclusive,
    tempora_simd::arch::{Ymm, Zmm},
};

/// The strides whose steady state keeps the input-vector ring in
/// registers and reads `B(y)` from the lane layout (one unrolled
/// instantiation each, see `lcs::ring_regs`); wider strides index the
/// ring in scratch memory and load the characters strided.
pub const REGISTER_STRIDES: core::ops::RangeInclusive<usize> = 1..=2;

/// Resolve `sel` for the band sweeps of an `la × lb` table whose columns
/// are cut every `yblock`, at stride `s`: the engine [`Select::resolve`]
/// gives where eight-lane bands fit ([`bands_fit`]) — portable where they
/// do not: LCS is integer code, one and the same in every engine's
/// context, so a shape without a band runs the portable scalar rows and
/// reports them. `Select::Auto` widens to sixteen lanes
/// ([`Engine::Avx512`]) where the CPU has AVX-512F, sixteen-lane bands
/// fit, `B` is at least [`crate::lcs::WIDE_MIN_LB`] wide and `la` rows
/// leave no more scalar rows at sixteen lanes than at eight
/// ([`crate::engine::wider_pays`]). `Select::Avx2` means eight lanes.
///
/// # Panics
/// Panics when `yblock == 0`, or on `Select::Avx2` without AVX2+FMA.
pub fn resolve(sel: Select, la: usize, lb: usize, yblock: usize, s: usize) -> Engine {
    let wide = sel == Select::Auto
        && wide_pays(la, lb)
        && bands_fit(WIDE_VL, la, lb, yblock, s)
        && tempora_simd::arch::avx512_available();
    match sel.resolve(bands_fit(VL, la, lb, yblock, s)) {
        Engine::Avx2 if wide => Engine::Avx512,
        engine => engine,
    }
}

/// [`crate::lcs::sweep`]'s part compiled for AVX2, computing in `isa`,
/// the proof that AVX2 is available.
#[cfg(target_arch = "x86_64")]
// Justification: `lcs::sweep`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    isa: Ymm,
    row: &mut [i32],
    a_band: &[u8],
    b: &[u8],
    bl: &BLanes,
    s: usize,
    ys: RangeInclusive<usize>,
    sc: &mut ScratchLcs<VL>,
) {
    /// # Safety
    /// Caller must ensure AVX2 is available
    /// (`tempora_simd::arch::avx2_available()`).
    // Justification: `lcs::sweep`'s contract, argument for argument.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn sandwich(
        isa: Ymm,
        row: &mut [i32],
        a_band: &[u8],
        b: &[u8],
        bl: &BLanes,
        s: usize,
        ys: RangeInclusive<usize>,
        sc: &mut ScratchLcs<VL>,
    ) {
        crate::lcs::sweep_in(isa, row, a_band, b, bl, s, ys, sc);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich(isa, row, a_band, b, bl, s, ys, sc) }
}

/// [`sweep`] at sixteen lanes: the same part contract, compiled for
/// AVX-512F+AVX2+FMA end to end and computing in `isa`, the proof that
/// they are available.
#[cfg(target_arch = "x86_64")]
// Justification: `lcs::sweep`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_zmm(
    isa: Zmm,
    row: &mut [i32],
    a_band: &[u8],
    b: &[u8],
    bl: &BLanes,
    s: usize,
    ys: RangeInclusive<usize>,
    sc: &mut ScratchLcs<WIDE_VL>,
) {
    /// # Safety
    /// Caller must ensure AVX-512F+AVX2+FMA are available
    /// (`tempora_simd::arch::avx512_available()`).
    // Justification: `lcs::sweep`'s contract, argument for argument.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn sandwich(
        isa: Zmm,
        row: &mut [i32],
        a_band: &[u8],
        b: &[u8],
        bl: &BLanes,
        s: usize,
        ys: RangeInclusive<usize>,
        sc: &mut ScratchLcs<WIDE_VL>,
    ) {
        crate::lcs::sweep_in(isa, row, a_band, b, bl, s, ys, sc);
    }
    // SAFETY: a `Zmm` exists only where AVX-512F+AVX2+FMA are available.
    unsafe { sandwich(isa, row, a_band, b, bl, s, ys, sc) }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::lcs::tests::{bands_stitch_exactly, waved};
    use crate::lcs::{final_row, length};
    use tempora_grid::random_sequence;
    use tempora_simd::arch::{avx2_available, avx512_available};
    use tempora_stencil::reference;

    /// The `std::arch` engines this host can run.
    fn engines() -> Vec<Engine> {
        let all = crate::engine::tests::engines();
        all.into_iter().filter(|&e| e != Engine::Portable).collect()
    }

    #[test]
    fn final_row_avx2_matches_portable_and_reference() {
        for engine in engines() {
            for &(la, lb) in &[
                (8usize, 40usize),
                (16, 100),
                (24, 33),
                (40, 17),
                (7, 50),
                (64, 257),
                (35, 1025),
            ] {
                for s in 1..=3 {
                    let a = random_sequence(la, 4, la as u64);
                    let b = random_sequence(lb, 4, lb as u64 + 1);
                    let ours = final_row(engine, &a, &b, s);
                    assert_eq!(
                        ours,
                        final_row(Engine::Portable, &a, &b, s),
                        "{engine:?} la={la} lb={lb} s={s} (vs portable)"
                    );
                    assert_eq!(
                        ours,
                        reference::lcs_final_row(&a, &b),
                        "{engine:?} la={la} lb={lb} s={s} (vs reference)"
                    );
                }
            }
        }
    }

    #[test]
    fn binary_alphabet_and_tiny_b() {
        for engine in engines() {
            for seed in 0..4 {
                let a = random_sequence(48, 2, seed);
                let b = random_sequence(96, 2, seed + 100);
                assert_eq!(
                    length(engine, &a, &b, 1),
                    *reference::lcs_final_row(&a, &b).last().unwrap()
                );
            }
            // b too short for any band: scalar rows.
            let a = random_sequence(16, 4, 9);
            let b = random_sequence(5, 4, 10);
            assert_eq!(
                final_row(engine, &a, &b, 1),
                reference::lcs_final_row(&a, &b)
            );
            assert_eq!(length(engine, b"", b"ABC", 1), 0);
            assert_eq!(length(engine, b"ABC", b"", 1), 0);
        }
    }

    #[test]
    fn segmented_tiles_stitch_exactly() {
        // Same stitching property as the portable engine: one sweep per
        // band, cut at the block columns and resumed across them, several
        // bands in flight — at eight lanes and, where the CPU has them,
        // sixteen.
        for engine in engines() {
            bands_stitch_exactly(engine);
        }
    }

    #[test]
    fn steady_iteration_counts_match_reference() {
        // Rows of `VL·s + k` columns run `k` steady iterations: none (the
        // scalar rows), 1, 2, one short of and one past a whole unrolled
        // chunk, and many — whole-row and cut into block columns of the
        // same width plus a ragged last one, where the ring and output
        // vector a part leaves are what the next one starts from. `s = 1,
        // 2` keep the ring in registers, `s = 3` in scratch memory.
        for engine in engines() {
            let vl = crate::lcs::vl(engine);
            for s in 1..=3 {
                for k in [0, 1, 2, s * (s + 1) - 1, s * (s + 1) + 1, 61] {
                    let seg = vl * s + k;
                    let a = random_sequence(3 * vl, 3, (s + k) as u64);
                    let b = random_sequence(seg, 3, (s * k) as u64 + 7);
                    let gold = reference::lcs_final_row(&a, &b);
                    assert_eq!(
                        final_row(engine, &a, &b, s),
                        gold,
                        "{engine:?} whole row s={s} k={k}"
                    );
                    assert_eq!(
                        final_row(Engine::Portable, &a, &b, s),
                        gold,
                        "portable s={s} k={k}"
                    );
                    if k == 0 {
                        continue;
                    }
                    // Three full block columns of `seg` and a ragged fourth.
                    let b = random_sequence(3 * seg + vl * s + 1, 3, (s + k) as u64 + 11);
                    let gold = reference::lcs_final_row(&a, &b);
                    let (row, _) = waved(engine, &a, &b, s, seg, 3);
                    assert_eq!(row, gold, "{engine:?} cut s={s} k={k}");
                }
            }
        }
    }

    #[test]
    fn shape_predicates() {
        let (cpu, wide) = (avx2_available(), avx512_available());
        let narrow = if cpu { Engine::Avx2 } else { Engine::Portable };
        let fits = |la, lb, yb, s| bands_fit(VL, la, lb, yb, s);
        // One block column (the untiled plan): a full band and a row
        // hosting the sweep.
        assert!(fits(8, 9, 9, 1));
        assert!(!fits(7, 100, 100, 1)); // no full band
        assert!(!fits(100, 8, 8, 1)); // row too short
        assert!(!fits(100, 16, 16, 2)); // 16 < 8·2 + 1
        assert!(!fits(100, 0, 1, 1)); // empty B
        assert!(fits(90, 140, 40, 1));
        assert!(!fits(6, 140, 40, 1)); // la < VL
        assert!(!fits(90, 140, 8, 1)); // block column too narrow
        assert!(fits(90, 132, 40, 1)); // ragged 12 ≥ 9
        assert!(!fits(90, 125, 40, 1)); // last column 5 < 9
        for s in [1 << 33, usize::MAX / 4 + 2, usize::MAX] {
            assert!(!fits(90, 140, 40, s)); // VL·s saturates
        }
        // The resolution: eight lanes wherever bands fit, portable where
        // they do not, and sixteen from 1024 columns under `Auto` only —
        // with sixteen-lane bands fitting and `la % 16 ≤ la % 8`.
        let wide = if wide { Engine::Avx512 } else { narrow };
        for (sel, la, lb, yb, s, want) in [
            (Select::Auto, 90, 140, 40, 1, narrow),
            (Select::Auto, 90, 125, 40, 1, Engine::Portable),
            (Select::Auto, 1024, 1024, 1024, 2, wide),
            (Select::Auto, 8192, 8192, 1024, 2, wide),
            (Select::Auto, 1024, 1023, 1023, 2, narrow),
            (Select::Auto, 1032, 1024, 1024, 2, narrow), // 1032 % 16 > 1032 % 8
            (Select::Auto, 24, 4096, 4096, 2, narrow),   // 24 % 16 > 24 % 8
            (Select::Auto, 32, 4096, 4096, 2, wide),
            (Select::Auto, 15, 4096, 4096, 2, narrow), // no sixteen-lane band
            (Select::Auto, 1024, 8192, 32, 1, wide),
            (Select::Auto, 1024, 8192, 32, 2, narrow), // 32 < 16·2 + 1
            (Select::Portable, 1024, 1024, 1024, 2, Engine::Portable),
        ] {
            assert_eq!(
                resolve(sel, la, lb, yb, s),
                want,
                "{sel:?} {la} {lb} {yb} {s}"
            );
        }
        if cpu {
            assert_eq!(resolve(Select::Avx2, 1024, 1024, 1024, 2), Engine::Avx2);
            assert_eq!(resolve(Select::Avx2, 7, 1024, 1024, 2), Engine::Portable);
        }
    }
}
