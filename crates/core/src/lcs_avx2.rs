//! Hand-scheduled AVX2 (`std::arch`) steady state for the LCS temporal
//! engine (paper §3.4) at the paper's integer width `vl = 8`.
//!
//! The portable engine in [`crate::lcs`] leaves instruction selection to
//! LLVM; this variant pins the steady state to the instruction mix the
//! paper's analysis assumes — `vpcmpeqd` for the character-equality
//! mask, `vpaddd`/`vpmaxsd` for the two update candidates, `vpblendvb`
//! for the equality blend, and one `vpermd` (lane-crossing rotate) plus
//! one `vpblendd` (in-lane) per produced vector for the input production
//! — while the head/tail wavefront triangles, the degenerate fallback
//! and the segmented (rectangle-tiled) entry point are shared with the
//! portable engine through its phase split
//! ([`crate::lcs::tile_seg_prologue`] /
//! [`crate::lcs::tile_seg_epilogue`]). At the strides in
//! [`REGISTER_STRIDES`] the input-vector ring lives in registers and the
//! `B`-character vectors are produced by the same rotate-and-blend rule;
//! wider strides index the ring in scratch and gather the characters with
//! the strided `vloadset` helper. Results stay bit-identical to the
//! portable engine and therefore to the scalar DP.
//!
//! Use [`crate::engine`] (or a `tempora_plan::Plan`) for transparent
//! runtime dispatch; the shape predicate [`rect_has_vector_tiles`] is what
//! the dispatch layers feed to `Select::resolve`.

use crate::lcs::ScratchLcs;

/// The integer vector length of the AVX2 LCS steady state (8 × i32 lanes
/// in one `__m256i` — the paper's "theoretical maximal speedup of 8").
pub const VL: usize = 8;

/// True when every rectangle tile of an `xblock × yblock` tiling can run
/// the AVX2 steady state: whole `VL`-level bands exist (`la ≥ VL` and
/// `xblock ≥ VL`) and **every** block column's segment — the ragged last
/// one included — hosts the vector schedule. A short final row band
/// (`x`-remainder `< VL`) runs scalar rows in every engine, like the
/// `steps mod height` tails of the grid tilings, and does not demote the
/// report; a column block too narrow for the steady state would, because
/// all of its tiles would silently run the scalar schedule.
pub fn rect_has_vector_tiles(la: usize, lb: usize, xblock: usize, yblock: usize, s: usize) -> bool {
    if !(tempora_simd::arch::avx2_available() && la >= VL && xblock >= VL) {
        return false;
    }
    let last = match lb % yblock {
        0 => yblock,
        r => r,
    };
    yblock.min(lb) > VL * s && last > VL * s
}

/// The strides whose steady state keeps the input-vector ring and the
/// `B`-character vectors in registers (one unrolled instantiation each,
/// see `imp::ring_regs`); wider strides index the ring in scratch memory
/// and gather the characters.
pub const REGISTER_STRIDES: core::ops::RangeInclusive<usize> = 1..=2;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::VL;
    use crate::lcs::ScratchLcs;
    use tempora_simd::arch::avx2::{self, __m256i};
    use tempora_simd::I32x8;

    /// AVX2 steady state of one LCS temporal tile: same algebra and
    /// iteration order as [`crate::lcs::tile_seg_steady`]. The strides in
    /// [`super::REGISTER_STRIDES`] run [`ring_regs`]; wider ones keep the
    /// ring in scratch memory, with the diagonal and the previous output
    /// vector carried in `__m256i` registers between iterations.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    // Justification: same tile-contract signature as the portable `tile_seg`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn steady(
        row: &mut [i32],
        y0: usize,
        y_max: usize,
        a_tile: &[u8],
        b: &[u8],
        s: usize,
        sc: &mut ScratchLcs<VL>,
        o_prev: I32x8,
    ) {
        // The one bound of the loops below: every `row[y + VL·s]` and
        // every character index up to `y - 1 + VL·s` has `y ≤ y_max`, and
        // no index is below `y0 - 1`. The prologue establishes it
        // (`y_max + VL·s = y1 ≤ b.len() < row.len()`).
        assert!(y0 >= 1 && y_max + VL * s < row.len() && y_max + VL * s <= b.len());
        let a_vec = avx2::from_pack_i32(I32x8::from_fn(|i| a_tile[i] as i32));
        let mut o_prev = avx2::from_pack_i32(o_prev);
        // SAFETY: the vocabulary calls below are gated only on AVX2,
        // discharged by this fn's own `#[target_feature(enable = "avx2")]`
        // caller contract. `ring_regs` and `gather_u8_i32` additionally
        // require their indices in bounds: for the gather the highest is
        // `y - 1 + (VL-1)·s < y_max + VL·s` and the lowest
        // `y - 1 ≥ y0 - 1`, so the hoisted
        // `assert!(y0 >= 1 && … y_max + VL * s <= b.len())` above covers
        // both, and it is `ring_regs`' bound verbatim. Row access in the
        // wider-stride loop is checked slice indexing.
        unsafe {
            match s {
                1 => ring_regs::<1, 2>(row, y0, y_max, a_vec, b, sc, o_prev),
                2 => ring_regs::<2, 3>(row, y0, y_max, a_vec, b, sc, o_prev),
                _ => {
                    let rlen = s + 1;
                    let ones = avx2::splat_i32(1);
                    let mut diag = avx2::from_pack_i32(sc.ring[(y0 + rlen - 1) % rlen]);
                    let mut iu = y0 % rlen;
                    let mut iw = (y0 + s) % rlen;
                    for y in y0..=y_max {
                        let up = avx2::from_pack_i32(sc.ring[iu]);
                        // Strided vloadset of the B characters: lane i reads
                        // b[y - 1 + (VL-1-i)·s].
                        let b_vec = avx2::gather_u8_i32(b, y - 1 + (VL - 1) * s, -(s as isize));
                        let eq = avx2::cmpeq_i32(a_vec, b_vec);
                        let o = avx2::blendv_i32(
                            avx2::max_i32(up, o_prev),
                            avx2::add_i32(diag, ones),
                            eq,
                        );
                        row[y] = avx2::extract_top_i32(o);
                        let bottom = row[y + VL * s];
                        sc.ring[iw] = avx2::to_pack_i32(avx2::shift_up_insert_i32(o, bottom));
                        o_prev = o;
                        diag = up;
                        iu += 1;
                        if iu == rlen {
                            iu = 0;
                        }
                        iw += 1;
                        if iw == rlen {
                            iw = 0;
                        }
                    }
                }
            }
        }
    }

    /// The steady state with every vector in a register. `S` is the
    /// stride and `R = S + 1` the ring length, as constants: the loop is
    /// unrolled `S·R`-wide so all indices below are compile-time —
    /// iteration `y` reads the diagonal `V(y-1)` and `V(y)` from `v[k % R]`
    /// and `v[(k+1) % R]` and overwrites the dead diagonal with the
    /// `V(y+S)` it produces (`y+S ≡ y-1 mod R`). The `B` characters are
    /// produced by the same one-rotate-one-blend rule from a ring of `S`
    /// vectors — lane 0 takes the next byte, every other lane shifts up —
    /// instead of a gather per iteration. Slot `j` always holds a `V(m)`
    /// with `m ≡ y0-1+j (mod R)`, wherever the sweep stops, so the ring is
    /// read from scratch before the loop and written back after it for
    /// the shared epilogue.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available
    /// (`tempora_simd::arch::avx2_available()`), and that `y0 ≥ 1`,
    /// `y_max + VL·S < row.len()` and `y_max + VL·S ≤ b.len()`.
    #[inline(always)]
    unsafe fn ring_regs<const S: usize, const R: usize>(
        row: &mut [i32],
        y0: usize,
        y_max: usize,
        a_vec: __m256i,
        b: &[u8],
        sc: &mut ScratchLcs<VL>,
        mut o_prev: __m256i,
    ) {
        assert!(R == S + 1);
        let ones = avx2::splat_i32(1);
        let mut v = [ones; R];
        for (j, v) in v.iter_mut().enumerate() {
            *v = avx2::from_pack_i32(sc.ring[(y0 - 1 + j) % R]);
        }
        let mut b_vec = [ones; S];
        // SAFETY: AVX2 vocabulary calls under the caller's availability
        // guarantee. Every index is within the caller-guaranteed bounds:
        // `y ≤ y_max` inside the loop, so `row[y]`, `row[y + VL·S]` and
        // `b[y - 1 + VL·S]` are in range, and the initial gathers read
        // `b[y0 - 1 ..= y0 - 2 + VL·S]`.
        unsafe {
            for (i, b_vec) in b_vec.iter_mut().enumerate() {
                // B(y0+i): lane l reads b[y0 + i - 1 + (VL-1-l)·S].
                *b_vec = avx2::gather_u8_i32(b, y0 + i - 1 + (VL - 1) * S, -(S as isize));
            }
            let mut y = y0;
            'sweep: loop {
                for k in 0..S * R {
                    if y > y_max {
                        break 'sweep;
                    }
                    let eq = avx2::cmpeq_i32(a_vec, b_vec[k % S]);
                    let o = avx2::blendv_i32(
                        avx2::max_i32(v[(k + 1) % R], o_prev),
                        avx2::add_i32(v[k % R], ones),
                        eq,
                    );
                    *row.get_unchecked_mut(y) = avx2::extract_top_i32(o);
                    v[k % R] = avx2::shift_up_insert_i32(o, *row.get_unchecked(y + VL * S));
                    let next = *b.get_unchecked(y - 1 + VL * S) as i32;
                    b_vec[k % S] = avx2::shift_up_insert_i32(b_vec[k % S], next);
                    o_prev = o;
                    y += 1;
                }
            }
        }
        for (j, &v) in v.iter().enumerate() {
            sc.ring[(y0 - 1 + j) % R] = avx2::to_pack_i32(v);
        }
    }
}

/// One segmented LCS temporal tile with the AVX2 steady state (shared
/// head/tail triangles and degenerate fallback with the portable
/// engine); the drop-in `std::arch` counterpart of
/// [`crate::lcs::tile_seg`]. Panics if AVX2+FMA are unavailable. The
/// tiled layer (`tempora_tiling::lcs_rect`) reaches this through its
/// resolved engine.
#[cfg(target_arch = "x86_64")]
// Justification: same tile-contract signature as the portable `tile_seg`.
#[allow(clippy::too_many_arguments)]
pub fn tile_seg_avx2(
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
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    if crate::lcs::tile_seg_fallback_if_degenerate::<VL>(
        row, y0, y1, a_tile, b, s, left_col, right_col,
    ) {
        return;
    }
    let (y_max, o_prev) =
        crate::lcs::tile_seg_prologue::<VL>(row, y0, y1, a_tile, b, s, left_col, sc);
    // SAFETY: availability asserted above.
    unsafe { imp::steady(row, y0, y_max, a_tile, b, s, sc, o_prev) };
    crate::lcs::tile_seg_epilogue::<VL>(row, y1, a_tile, b, s, right_col, sc, y_max);
}

/// Advance the full DP row by `VL = 8` sequence-`A` positions with the
/// AVX2 steady state (whole-row temporal tile); the `std::arch`
/// counterpart of [`crate::lcs::tile`].
#[cfg(target_arch = "x86_64")]
pub fn tile_avx2(row: &mut [i32], a_tile: &[u8], b: &[u8], s: usize, sc: &mut ScratchLcs<VL>) {
    let lb = b.len();
    let zeros = [0i32; VL + 1];
    let mut sink = [0i32; VL + 1];
    tile_seg_avx2(row, 1, lb, a_tile, b, s, &zeros, &mut sink, sc);
}

/// Compute the final DP row with the AVX2 steady state; bit-identical to
/// [`crate::lcs::final_row`] and the scalar reference. Panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn final_row_avx2(a: &[u8], b: &[u8], s: usize) -> Vec<i32> {
    let mut row = vec![0i32; b.len() + 1];
    if b.is_empty() {
        return row;
    }
    let mut sc = ScratchLcs::<VL>::new(s);
    let tiles = a.len() / VL;
    for t in 0..tiles {
        tile_avx2(&mut row, &a[t * VL..(t + 1) * VL], b, s, &mut sc);
    }
    for &ca in &a[tiles * VL..] {
        crate::lcs::scalar_row_step(&mut row, ca, b);
    }
    row
}

/// LCS length via the AVX2 temporal scheme; bit-identical to
/// [`crate::lcs::length`]. Panics if AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub fn length_avx2(a: &[u8], b: &[u8], s: usize) -> i32 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Panic-justification: `b` is non-empty (checked above), so the final
    // row has `b.len()` entries and `last()` is always Some.
    *final_row_avx2(a, b, s).last().unwrap()
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
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
                let ours = final_row_avx2(&a, &b, s);
                assert_eq!(
                    ours,
                    crate::lcs::final_row::<8>(&a, &b, s),
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
                length_avx2(&a, &b, 1),
                *reference::lcs_final_row(&a, &b).last().unwrap()
            );
        }
        // b too short for any vector segment: shared scalar fallback.
        let a = random_sequence(16, 4, 9);
        let b = random_sequence(5, 4, 10);
        assert_eq!(final_row_avx2(&a, &b, 1), reference::lcs_final_row(&a, &b));
        assert_eq!(length_avx2(b"", b"ABC", 1), 0);
        assert_eq!(length_avx2(b"ABC", b"", 1), 0);
    }

    #[test]
    fn segmented_tiles_stitch_exactly() {
        if !avx2_available() {
            return;
        }
        // Same stitching property as the portable engine: process the
        // table in column blocks, threading edges through tile_seg_avx2.
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
                        tile_seg_avx2(
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
                assert_eq!(final_row_avx2(&a, &b, s), gold, "whole row s={s} k={k}");
                assert_eq!(
                    crate::lcs::final_row::<8>(&a, &b, s),
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
                        tile_seg_avx2(&mut row, y0, y1, a_tile, &b, s, &left, &mut right, &mut sc);
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
    }
}
