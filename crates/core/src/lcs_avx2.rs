//! The AVX2 (`std::arch`) engine of the LCS temporal tile (paper §3.4) at
//! the paper's integer width `vl = 8`: the codegen sandwich around
//! [`crate::lcs`], and the shape predicate of its dispatch.
//!
//! The tile's steady state is one `#[inline(always)]` *source*, generic
//! over the lane vocabulary it computes in ([`tempora_simd::I32Lanes`]).
//! The portable engine instantiates it for baseline x86-64 with `Packs`;
//! this module instantiates it a second time, with [`Ymm`], inside a
//! `#[target_feature(enable = "avx2")]` function, where the vocabulary is
//! the instruction mix the paper's analysis assumes — `vpcmpeqd` for the
//! character-equality mask, `vpaddd`/`vpmaxsd` for the two update
//! candidates, `vpblendvb` for the equality blend, and one `vpermd`
//! (lane-crossing rotate) plus one `vpblendd` (in-lane) per produced
//! vector for the input production. At the strides in
//! [`REGISTER_STRIDES`] the input-vector ring lives in registers and the
//! `B`-character vectors are produced by the same rotate-and-blend rule;
//! wider strides index the ring in scratch and load the characters
//! strided. Results are bit-identical to the portable engine and
//! therefore to the scalar DP.
//!
//! Use [`crate::lcs::tile_seg`] (or a `tempora_plan::Plan`) for
//! transparent runtime dispatch; the shape predicate
//! [`rect_has_vector_tiles`] is what the dispatch layers feed to
//! `Select::resolve`.

pub use crate::lcs::VL;
#[cfg(target_arch = "x86_64")]
use {crate::lcs::ScratchLcs, tempora_simd::arch::Ymm};

/// True when every rectangle tile of an `xblock × yblock` tiling can run
/// the AVX2 steady state: whole `VL`-level bands exist (`la ≥ VL` and
/// `xblock ≥ VL`) and **every** block column's segment — the ragged last
/// one included — hosts the vector schedule. A short final row band
/// (`x`-remainder `< VL`) runs scalar rows in every engine, like the
/// `steps mod height` tails of the grid tilings, and does not demote the
/// report; a column block too narrow for the steady state would, because
/// all of its tiles would silently run the scalar schedule. A stride whose
/// `VL·s` exceeds every segment, however large, has no vector tile.
pub fn rect_has_vector_tiles(la: usize, lb: usize, xblock: usize, yblock: usize, s: usize) -> bool {
    if !(tempora_simd::arch::avx2_available() && la >= VL && xblock >= VL) {
        return false;
    }
    let last = match lb % yblock {
        0 => yblock,
        r => r,
    };
    yblock.min(lb).min(last) > VL.saturating_mul(s)
}

/// The strides whose steady state keeps the input-vector ring and the
/// `B`-character vectors in registers (one unrolled instantiation each,
/// see `lcs::ring_regs`); wider strides index the ring in scratch memory
/// and load the characters strided.
pub const REGISTER_STRIDES: core::ops::RangeInclusive<usize> = 1..=2;

/// [`crate::lcs::tile_seg`]'s tile compiled for AVX2, computing in `isa`,
/// the proof that AVX2 is available.
#[cfg(target_arch = "x86_64")]
// Justification: same tile-contract signature as `lcs::tile_seg`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_seg(
    isa: Ymm,
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    left_col: &[i32],
    right_col: &mut [i32],
    sc: &mut ScratchLcs<VL>,
) {
    /// # Safety
    /// Caller must ensure AVX2 is available
    /// (`tempora_simd::arch::avx2_available()`).
    // Justification: same tile-contract signature as `lcs::tile_seg`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn sandwich(
        isa: Ymm,
        row: &mut [i32],
        y0: usize,
        y1: usize,
        a_tile: &[u8],
        b: &[u8],
        s: usize,
        left_col: &[i32],
        right_col: &mut [i32],
        sc: &mut ScratchLcs<VL>,
    ) {
        crate::lcs::tile_seg_in(isa, row, y0, y1, a_tile, b, s, left_col, right_col, sc);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich(isa, row, y0, y1, a_tile, b, s, left_col, right_col, sc) }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::lcs::{final_row, length, tile_seg};
    use tempora_grid::random_sequence;
    use tempora_simd::arch::avx2_available;
    use tempora_stencil::reference;

    #[test]
    fn final_row_avx2_matches_portable_and_reference() {
        if !avx2_available() {
            return;
        }
        for &(la, lb) in &[
            (8usize, 40usize),
            (16, 100),
            (24, 33),
            (40, 17),
            (7, 50),
            (64, 257),
        ] {
            for s in 1..=3 {
                let a = random_sequence(la, 4, la as u64);
                let b = random_sequence(lb, 4, lb as u64 + 1);
                let ours = final_row(Engine::Avx2, &a, &b, s);
                assert_eq!(
                    ours,
                    final_row(Engine::Portable, &a, &b, s),
                    "la={la} lb={lb} s={s} (vs portable)"
                );
                assert_eq!(
                    ours,
                    reference::lcs_final_row(&a, &b),
                    "la={la} lb={lb} s={s} (vs reference)"
                );
            }
        }
    }

    #[test]
    fn binary_alphabet_and_tiny_b() {
        if !avx2_available() {
            return;
        }
        for seed in 0..4 {
            let a = random_sequence(48, 2, seed);
            let b = random_sequence(96, 2, seed + 100);
            assert_eq!(
                length(Engine::Avx2, &a, &b, 1),
                *reference::lcs_final_row(&a, &b).last().unwrap()
            );
        }
        // b too short for any vector segment: shared scalar fallback.
        let a = random_sequence(16, 4, 9);
        let b = random_sequence(5, 4, 10);
        assert_eq!(
            final_row(Engine::Avx2, &a, &b, 1),
            reference::lcs_final_row(&a, &b)
        );
        assert_eq!(length(Engine::Avx2, b"", b"ABC", 1), 0);
        assert_eq!(length(Engine::Avx2, b"ABC", b"", 1), 0);
    }

    #[test]
    fn segmented_tiles_stitch_exactly() {
        if !avx2_available() {
            return;
        }
        // Same stitching property as the portable engine: process the
        // table in column blocks, threading edges through tile_seg.
        let a = random_sequence(32, 3, 5);
        let b = random_sequence(200, 3, 6);
        let (la, lb) = (a.len(), b.len());
        let gold_table = reference::lcs_table(&a, &b);
        let w = lb + 1;
        for s in [1usize, 2] {
            for block in [24usize, 64, 96] {
                let mut row = vec![0i32; lb + 1];
                let mut sc = ScratchLcs::<8>::new(s);
                for t in 0..la / 8 {
                    let x0 = t * 8;
                    let mut left = [0i32; 9];
                    let mut right = [0i32; 9];
                    let mut y0 = 1usize;
                    while y0 <= lb {
                        let y1 = (y0 + block - 1).min(lb);
                        tile_seg(
                            Engine::Avx2,
                            &mut row,
                            y0,
                            y1,
                            &a[x0..x0 + 8],
                            &b,
                            s,
                            &left,
                            &mut right,
                            &mut sc,
                        );
                        for k in 0..=8 {
                            assert_eq!(
                                right[k],
                                gold_table[(x0 + k) * w + y1],
                                "s={s} block={block} x0={x0} y1={y1} k={k}"
                            );
                        }
                        left = right;
                        y0 = y1 + 1;
                    }
                }
                let gold_row = &gold_table[(la / 8 * 8) * w..(la / 8 * 8) * w + w];
                assert_eq!(&row[..], gold_row);
            }
        }
    }

    #[test]
    fn steady_iteration_counts_match_reference() {
        if !avx2_available() {
            return;
        }
        // Segments of `VL·s + k` columns run `k` steady iterations: none
        // (the scalar fallback), 1, 2, one short of and one past a whole
        // unrolled chunk, and many — whole-row and as the column blocks of
        // a rectangle tiling, where the ring written back after one tile
        // row is the scratch the next one starts from. `s = 1, 2` keep the
        // ring in registers, `s = 3` in scratch memory.
        for s in 1..=3 {
            for k in [0, 1, 2, s * (s + 1) - 1, s * (s + 1) + 1, 61] {
                let seg = VL * s + k;
                let a = random_sequence(24, 3, (s + k) as u64);
                let b = random_sequence(seg, 3, (s * k) as u64 + 7);
                let gold = reference::lcs_final_row(&a, &b);
                assert_eq!(
                    final_row(Engine::Avx2, &a, &b, s),
                    gold,
                    "whole row s={s} k={k}"
                );
                assert_eq!(
                    final_row(Engine::Portable, &a, &b, s),
                    gold,
                    "portable s={s} k={k}"
                );
                // Three full blocks of `seg` columns and a ragged fourth.
                let b = random_sequence(3 * seg + VL * s + 1, 3, (s + k) as u64 + 11);
                let (lb, w) = (b.len(), b.len() + 1);
                let gold = reference::lcs_table(&a, &b);
                let mut row = vec![0i32; w];
                let mut sc = ScratchLcs::<8>::new(s);
                for x0 in (0..a.len()).step_by(VL) {
                    let (mut left, mut right) = ([0i32; 9], [0i32; 9]);
                    for y0 in (1..=lb).step_by(seg) {
                        let y1 = (y0 + seg - 1).min(lb);
                        let a_tile = &a[x0..x0 + VL];
                        tile_seg(
                            Engine::Avx2,
                            &mut row,
                            y0,
                            y1,
                            a_tile,
                            &b,
                            s,
                            &left,
                            &mut right,
                            &mut sc,
                        );
                        for (h, &v) in right.iter().enumerate() {
                            assert_eq!(v, gold[(x0 + h) * w + y1], "s={s} k={k} x0={x0} y1={y1}");
                        }
                        left = right;
                    }
                }
                assert_eq!(&row[..], &gold[a.len() * w..], "rect s={s} k={k}");
            }
        }
    }

    #[test]
    fn shape_predicates() {
        let cpu = avx2_available();
        // One rectangle (the untiled plan): a full A tile and a row
        // hosting the vector schedule.
        assert_eq!(rect_has_vector_tiles(8, 9, 8, 9, 1), cpu);
        assert!(!rect_has_vector_tiles(7, 100, 7, 100, 1)); // no full A tile
        assert!(!rect_has_vector_tiles(100, 8, 100, 8, 1)); // segment too short
        assert!(!rect_has_vector_tiles(100, 16, 100, 16, 2)); // 16 < 8·2 + 1
        assert!(!rect_has_vector_tiles(100, 0, 100, 1, 1)); // empty B
        assert_eq!(rect_has_vector_tiles(90, 140, 24, 40, 1), cpu);
        assert!(!rect_has_vector_tiles(90, 140, 4, 40, 1)); // xblock < VL
        assert!(!rect_has_vector_tiles(6, 140, 24, 40, 1)); // la < VL
        assert!(!rect_has_vector_tiles(90, 140, 24, 8, 1)); // yblock segment
        assert_eq!(rect_has_vector_tiles(90, 132, 24, 40, 1), cpu); // ragged 12 ≥ 9
        assert!(!rect_has_vector_tiles(90, 125, 24, 40, 1)); // last segment 5 < 9
        for s in [1 << 33, usize::MAX / 4 + 2, usize::MAX] {
            assert!(!rect_has_vector_tiles(90, 140, 24, 40, s)); // VL·s saturates
        }
    }
}
