//! The resolution of an LCS run (paper §3.4), and the strides whose band
//! sweep keeps its ring in registers.
//!
//! The band sweep is the 1-D temporal sweep of [`crate::t1d`], and its
//! `std::arch` engines are that sweep's sandwiches in [`crate::t1d_avx2`]:
//! with [`tempora_simd::arch::Ymm`] at the paper's integer width `vl = 8`
//! inside `#[target_feature(enable = "avx2,fma")]` — `vpcmpeqd` for the
//! character-equality mask (the `B` load from the lane layout folded in),
//! `vpaddd`/`vpmaxsd` for the two update candidates, `vpblendvb` for the
//! equality blend, and one `vpermd` (lane-crossing rotate) plus one
//! `vpblendd` (in-lane) per produced vector for the input production —
//! and with [`tempora_simd::arch::Zmm`] at sixteen lanes inside
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
use crate::lcs::{bands_fit, vl, COST, VL, WIDE_VL};

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
/// reports them. Where sixteen-lane bands fit, the grid kinds' width rule
/// ([`crate::engine::SweepCost::widen`] on [`crate::lcs::COST`], `la`
/// rows over `B`) may widen it. `Select::Avx2` means eight lanes.
///
/// # Panics
/// Panics when `yblock == 0`, or on `Select::Avx2` without AVX2+FMA.
pub fn resolve(sel: Select, la: usize, lb: usize, yblock: usize, s: usize) -> Engine {
    let narrow = sel.resolve(bands_fit(VL, la, lb, yblock, s));
    match bands_fit(WIDE_VL, la, lb, yblock, s) {
        true => COST.widen(sel, narrow, lb, la, |engine| (vl(engine), s)),
        false => narrow,
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::lcs::tests::{bands_stitch_exactly, final_row_of, length_of, waved};
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
                    let ours = final_row_of(engine, &a, &b, s);
                    assert_eq!(
                        ours,
                        final_row_of(Engine::Portable, &a, &b, s),
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
                    length_of(engine, &a, &b, 1),
                    *reference::lcs_final_row(&a, &b).last().unwrap()
                );
            }
            // b too short for any band: scalar rows.
            let a = random_sequence(16, 4, 9);
            let b = random_sequence(5, 4, 10);
            assert_eq!(
                final_row_of(engine, &a, &b, 1),
                reference::lcs_final_row(&a, &b)
            );
            assert_eq!(length_of(engine, b"", b"ABC", 1), 0);
            assert_eq!(length_of(engine, b"ABC", b"", 1), 0);
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
                        final_row_of(engine, &a, &b, s),
                        gold,
                        "{engine:?} whole row s={s} k={k}"
                    );
                    assert_eq!(
                        final_row_of(Engine::Portable, &a, &b, s),
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
        // they do not, and sixteen under `Auto` only, where sixteen-lane
        // bands fit and the width formula prices them cheaper.
        let wide = if wide { Engine::Avx512 } else { narrow };
        for (sel, la, lb, yb, s, want) in [
            (Select::Auto, 90, 140, 40, 1, narrow), // 10 scalar rows against 2
            (Select::Auto, 90, 125, 40, 1, Engine::Portable),
            (Select::Auto, 1024, 1024, 1024, 2, wide),
            (Select::Auto, 8192, 8192, 1024, 2, wide),
            (Select::Auto, 64, 64, 64, 2, wide),
            (Select::Auto, 1024, 33, 33, 2, wide),
            (Select::Auto, 1024, 32, 32, 2, narrow), // 32 < 16·2 + 1
            (Select::Auto, 1032, 1024, 1024, 2, wide), // 8 scalar rows against 0
            (Select::Auto, 104, 4096, 4096, 2, wide),
            (Select::Auto, 95, 4096, 4096, 2, narrow), // 15 scalar rows against 7
            (Select::Auto, 24, 4096, 4096, 2, narrow),
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
