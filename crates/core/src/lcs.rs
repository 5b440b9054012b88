//! Temporal vectorization of the LCS dynamic program (paper §3.4).
//!
//! LCS is the paper's demonstration that temporal vectorization extends
//! beyond PDE stencils to dynamic-programming wavefronts. With the `x`
//! loop (sequence `A`) viewed as *time* and the `y` loop (sequence `B`)
//! as *space*, the recurrence
//!
//! ```text
//! lcs[x][y] = if A[x] == B[y] { lcs[x-1][y-1] + 1 }
//!             else            { max(lcs[x-1][y], lcs[x][y-1]) }
//! ```
//!
//! is a 1-D Gauss-Seidel stencil whose only same-time dependence is the
//! west neighbour — so the minimum temporal stride is `s = 1` (no old
//! east neighbour exists, unlike the 3-point stencils). One vector packs
//! `VL = 8` consecutive `A`-positions (`i32` lanes); per inner iteration
//! the kernel needs
//!
//! * `diag` = `V(y-1)`, `up` = `V(y)` (input-vector ring),
//! * `left` = `O(y-1)` (previous output vector — the Gauss-Seidel rule),
//! * the character equality mask: lane `i` compares `A[x0+1+i]` (a
//!   per-tile constant vector) against `B[y + (VL-1-i)·s]` (a strided
//!   load acting as the paper's "variable coefficient"),
//!
//! and produces `O(y) = select(eq, diag + 1, max(up, left))` — the
//! paper's "blend instruction with a mask vector of equalities". The
//! sweep state is a single rolling row (the paper's `lcsA`/`lcsB`
//! wavefront arrays), updated in place.
//!
//! For the paper's rectangle tiling ("LCS allows the rectangle tiling in
//! the iteration space"), [`tile_seg`] runs the same schedule on a row
//! *segment*, importing the per-level west values of the neighbouring
//! block as a column vector and exporting its own east column.
//!
//! # One steady state, two engines
//!
//! The steady state is written once, generic over the register form it
//! computes in ([`tempora_simd::I32Lanes`]): `ring_regs`, with every
//! vector in a register and the `B` characters produced by the same
//! rotate-and-blend rule as the input vectors, for the strides in
//! [`crate::lcs_avx2::REGISTER_STRIDES`], and one rolled loop that keeps
//! the ring in scratch and loads the characters strided for wider ones.
//! [`tile_seg`] takes the resolved [`Engine`]: portable runs the tile in
//! `Packs` for baseline x86-64, AVX2 runs the same source in `Ymm` inside
//! the sandwich of [`crate::lcs_avx2`], where the vocabulary is
//! `vpcmpeqd`, `vpaddd`/`vpmaxsd`, `vpblendvb` and one `vpermd` plus one
//! `vpblendd` per produced vector.

use crate::engine::{Codegen, Engine};
use tempora_simd::{I32Lanes, Pack, Packs};
use tempora_stencil::{lcs_update, lcs_update_pack};

/// The integer vector length of the production LCS engines (8 × i32
/// lanes, one `ymm` — the paper's "theoretical maximal speedup of 8").
pub const VL: usize = 8;

/// Scratch for the LCS engine (head/tail wavefront triangles).
pub struct ScratchLcs<const VL: usize> {
    head: Vec<Vec<i32>>,
    tail: Vec<Vec<i32>>,
    ring: Vec<Pack<i32, VL>>,
}

impl<const VL: usize> ScratchLcs<VL> {
    /// Allocate scratch for stride `s`.
    pub fn new(s: usize) -> Self {
        ScratchLcs {
            head: (0..VL).map(|k| vec![0; (VL - k) * s + 2]).collect(),
            tail: (0..VL).map(|i| vec![0; (i + 1) * s + 2]).collect(),
            ring: vec![Pack::splat(0); s + 2],
        }
    }
}

/// One scalar DP row step over the segment `y ∈ [y0, y1]` (1-based).
///
/// `west` supplies the newest west value `lcs[x][y0-1]` and `nw` the
/// diagonal `lcs[x-1][y0-1]` — both must be passed explicitly because at
/// a block boundary `row[y0-1]` already holds a *newer* level than the
/// one this step consumes.
pub fn scalar_row_step_seg(
    row: &mut [i32],
    ca: u8,
    b: &[u8],
    y0: usize,
    y1: usize,
    west: i32,
    nw: i32,
) {
    let mut diag = nw;
    let mut west = west;
    for y in y0..=y1 {
        let up = row[y];
        let v = lcs_update(diag, up, west, ca, b[y - 1]);
        row[y] = v;
        west = v;
        diag = up;
    }
}

/// Advance the DP rows by [`VL`] sequence-`A` positions over the column
/// segment `[y0, y1]` (one temporal tile of one rectangle block) with the
/// resolved `engine` (bit-identical either way).
///
/// * `row` holds `lcs[x0][·]` on the segment on entry, `lcs[x0+VL][·]` on
///   exit (positions outside the segment are not touched);
/// * `a_tile` = `A[x0+1 ..= x0+VL]`; `b` is the full second sequence;
/// * `left_col[k]` = `lcs[x0+k][y0-1]` for `k ∈ 0..=VL` (all zeros when
///   the segment starts at column 1);
/// * on return `right_col[k]` = `lcs[x0+k][y1]`.
///
/// # Panics
/// Panics if `engine` is a `std::arch` engine and the CPU lacks AVX2+FMA.
// Justification: the parameter list is the tile contract itself (row, columns, bounds, shift); bundling it would hide what each kernel stage touches.
#[allow(clippy::too_many_arguments)]
pub fn tile_seg(
    engine: Engine,
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
    match engine.codegen() {
        #[cfg(target_arch = "x86_64")]
        Codegen::Avx2(isa) => {
            crate::lcs_avx2::tile_seg(isa, row, y0, y1, a_tile, b, s, left_col, right_col, sc)
        }
        Codegen::Baseline => tile_seg_in(Packs, row, y0, y1, a_tile, b, s, left_col, right_col, sc),
    }
}

/// [`tile_seg`] at any lane count, computing in `isa`'s registers, in the
/// caller's codegen context: the scalar fallback when the segment cannot
/// host the vector schedule, else head triangles, steady state and tail
/// triangles.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn tile_seg_in<const VL: usize, L: I32Lanes<VL>>(
    isa: L,
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
    if tile_seg_fallback_if_degenerate::<VL>(row, y0, y1, a_tile, b, s, left_col, right_col) {
        return;
    }
    let (y_max, o_prev) = tile_seg_prologue::<VL>(row, y0, y1, a_tile, b, s, left_col, sc);
    steady::<VL, L>(isa, row, y0, y_max, a_tile, b, s, sc, o_prev);
    tile_seg_epilogue::<VL>(row, y1, a_tile, b, s, right_col, sc, y_max);
}

/// Degenerate-segment guard: when the segment cannot host the vector
/// schedule (`seg < VL·s + 1`), run the `VL` levels with scalar row steps
/// instead (same results, `right_col` fully exported) and report `true`.
/// Also validates the tile contract.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
fn tile_seg_fallback_if_degenerate<const VL: usize>(
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    left_col: &[i32],
    right_col: &mut [i32],
) -> bool {
    assert!(s >= 1);
    assert_eq!(a_tile.len(), VL);
    assert!(left_col.len() > VL && right_col.len() > VL);
    debug_assert!(y0 >= 1 && y1 >= y0 && y1 < row.len());
    right_col[0] = row[y1];
    if y1 + 1 - y0 > VL * s {
        return false;
    }
    for (k, &ca) in a_tile.iter().enumerate() {
        scalar_row_step_seg(row, ca, b, y0, y1, left_col[k + 1], left_col[k]);
        right_col[k + 1] = row[y1];
    }
    true
}

/// Phase 1 of an LCS temporal tile: scalar head wavefront triangles for
/// levels `1..VL`, the initial input-vector ring `V(y0-1) ..= V(y0-1+s)`
/// and the initial output vector `O(y0-1)`. Returns `(y_max, o_prev)` —
/// the last steady anchor column and the output vector the steady state
/// starts from. The segment must not be degenerate (see
/// [`tile_seg_fallback_if_degenerate`]).
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
fn tile_seg_prologue<const VL: usize>(
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    left_col: &[i32],
    sc: &mut ScratchLcs<VL>,
) -> (usize, Pack<i32, VL>) {
    let seg = y1 + 1 - y0;
    assert!(seg > VL * s, "degenerate segment: call the fallback");
    let y_max = y1 - VL * s; // last steady anchor (absolute column)

    // Prologue: head[k][j] = lcs[x0+k][y0-1+j] for j ∈ 0..=(VL-k)·s.
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0];
        plane[0] = left_col[k];
        let ca = a_tile[k - 1];
        for j in 1..=hi {
            let y = y0 - 1 + j;
            let (diag, up) = if k == 1 {
                // At the segment edge row[y0-1] already holds a newer
                // level; the true level-0 diagonal is left_col[0].
                let d = if j == 1 { left_col[0] } else { row[y - 1] };
                (d, row[y])
            } else {
                (lo[k - 1][j - 1], lo[k - 1][j])
            };
            plane[j] = lcs_update(diag, up, plane[j - 1], ca, b[y - 1]);
        }
    }

    // Initial ring V(y0-1) ..= V(y0-1+s): lane i = lcs[x0+i][y+(VL-1-i)·s]
    // (the anchor one left of the first steady iteration, as in
    // Algorithm 3 lines 5-7).
    let rlen = s + 1;
    for jj in 0..=s {
        let y = y0 - 1 + jj;
        let head = &sc.head;
        sc.ring[y % rlen] = Pack::from_fn(|i| {
            let yy = y + (VL - 1 - i) * s;
            if i == 0 {
                row[yy]
            } else {
                head[i][yy - (y0 - 1)]
            }
        });
    }
    // O(y0-1): lane i = lcs[x0+1+i][y0-1 + (VL-1-i)·s].
    let o_prev = Pack::<i32, VL>::from_fn(|i| {
        let j = (VL - 1 - i) * s;
        if i == VL - 1 {
            left_col[VL]
        } else {
            sc.head[i + 1][j]
        }
    });
    (y_max, o_prev)
}

/// Phase 2 of an LCS temporal tile: the §3.4 steady state
/// `O(y) = select(eq, diag + 1, max(up, left))` over the anchors
/// `y ∈ [y0, y_max]`, in `isa`'s registers — the one dispatch on the
/// stride. `(y_max, o_prev)` must come from [`tile_seg_prologue`].
///
/// The strides in [`crate::lcs_avx2::REGISTER_STRIDES`] run
/// [`ring_regs`]. Wider ones run the rolled loop below, which keeps the
/// ring in scratch at one read and one write per iteration — the write at
/// column `y` lands in the very slot the diagonal operand was read from
/// (`y+s ≡ y-1 mod s+1`), so `diag` is the previous iteration's `up`
/// vector, carried in a register — and loads the characters strided.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn steady<const VL: usize, L: I32Lanes<VL>>(
    isa: L,
    row: &mut [i32],
    y0: usize,
    y_max: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    sc: &mut ScratchLcs<VL>,
    o_prev: Pack<i32, VL>,
) {
    // Per-tile constant: lane i compares against A[x0+1+i].
    let a_vec = isa.load(Pack::from_fn(|i| a_tile[i] as i32));
    let mut o_prev = isa.load(o_prev);
    match s {
        1 => ring_regs::<1, 2, VL, L>(isa, row, y0, y_max, a_vec, b, sc, o_prev),
        2 => ring_regs::<2, 3, VL, L>(isa, row, y0, y_max, a_vec, b, sc, o_prev),
        _ => {
            let rlen = s + 1;
            let mut diag = isa.load(sc.ring[(y0 + rlen - 1) % rlen]);
            let mut iu = y0 % rlen;
            let mut iw = (y0 + s) % rlen;
            for y in y0..=y_max {
                let up = isa.load(sc.ring[iu]);
                // Lane i reads b[y - 1 + (VL-1-i)·s].
                let b_vec = isa.load_u8(b, y - 1 + (VL - 1) * s, -(s as isize));
                let o = lcs_update_pack(isa, diag, up, o_prev, a_vec, b_vec);
                row[y] = isa.top(o);
                sc.ring[iw] = isa.store(isa.shift_up_insert(o, row[y + VL * s]));
                o_prev = o;
                diag = up;
                iu = if iu + 1 == rlen { 0 } else { iu + 1 };
                iw = if iw + 1 == rlen { 0 } else { iw + 1 };
            }
        }
    }
}

/// The steady state with every vector in a register. `S` is the stride
/// and `R = S + 1` the ring length, as constants: the loop is unrolled
/// `S·R`-wide so all indices below are compile-time — iteration `y` reads
/// the diagonal `V(y-1)` and `V(y)` from `v[k % R]` and `v[(k+1) % R]` and
/// overwrites the dead diagonal with the `V(y+S)` it produces
/// (`y+S ≡ y-1 mod R`). The `B` characters are produced by the same
/// one-rotate-one-blend rule from a ring of `S` vectors — lane 0 takes the
/// next byte, every other lane shifts up — instead of a strided load per
/// iteration. Slot `j` always holds a `V(m)` with `m ≡ y0-1+j (mod R)`,
/// wherever the sweep stops, so the ring is read from scratch before the
/// loop and written back after it for the epilogue.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn ring_regs<const S: usize, const R: usize, const VL: usize, L: I32Lanes<VL>>(
    isa: L,
    row: &mut [i32],
    y0: usize,
    y_max: usize,
    a_vec: L::V,
    b: &[u8],
    sc: &mut ScratchLcs<VL>,
    mut o_prev: L::V,
) {
    assert!(R == S + 1);
    // The one bound of the loop below: every `row[y + VL·S]` and every
    // character index `y - 1 + VL·S` has `y ≤ y_max`, and no index is
    // below `y0 - 1`. The prologue establishes it
    // (`y_max + VL·S = y1 ≤ b.len() < row.len()`).
    assert!(y0 >= 1 && y_max + VL * S < row.len() && y_max + VL * S <= b.len());
    let mut v = [o_prev; R];
    for (j, v) in v.iter_mut().enumerate() {
        *v = isa.load(sc.ring[(y0 - 1 + j) % R]);
    }
    let mut b_vec = [a_vec; S];
    for (i, b_vec) in b_vec.iter_mut().enumerate() {
        // B(y0+i): lane l reads b[y0 + i - 1 + (VL-1-l)·S].
        *b_vec = isa.load_u8(b, y0 + i - 1 + (VL - 1) * S, -(S as isize));
    }
    let mut y = y0;
    'sweep: loop {
        for k in 0..S * R {
            if y > y_max {
                break 'sweep;
            }
            let o = lcs_update_pack(isa, v[k % R], v[(k + 1) % R], o_prev, a_vec, b_vec[k % S]);
            // SAFETY: `y ≤ y_max` here, so `y`, `y + VL·S` (in `row`) and
            // `y - 1 + VL·S` (in `b`) are in bounds by the hoisted assert
            // above.
            let (bottom, next) = unsafe {
                *row.get_unchecked_mut(y) = isa.top(o);
                (
                    *row.get_unchecked(y + VL * S),
                    *b.get_unchecked(y - 1 + VL * S),
                )
            };
            v[k % R] = isa.shift_up_insert(o, bottom);
            b_vec[k % S] = isa.shift_up_insert(b_vec[k % S], next as i32);
            o_prev = o;
            y += 1;
        }
    }
    for (j, &v) in v.iter().enumerate() {
        sc.ring[(y0 - 1 + j) % R] = isa.store(v);
    }
}

/// Phase 3 of an LCS temporal tile: drain the surviving ring into the
/// tail triangles, finish every level scalar-wise up to `y1` and export
/// the east column. `y_max` must match the value [`tile_seg_prologue`]
/// returned and the ring must hold `V(j)` at slot `j % (s+1)` for
/// `j ∈ y_max ..= y_max+s`, as left behind by the steady state.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
fn tile_seg_epilogue<const VL: usize>(
    row: &mut [i32],
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    right_col: &mut [i32],
    sc: &mut ScratchLcs<VL>,
    y_max: usize,
) {
    let rlen = s + 1;
    for i in 1..VL {
        let base = y_max + (VL - 1 - i) * s;
        for j in y_max..=y_max + s {
            let v = sc.ring[j % rlen];
            sc.tail[i][j - y_max] = v.extract(i);
        }
        let ca = a_tile[i - 1];
        let (lo, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0];
        for y in base + s + 1..=y1 {
            let rel = y - base;
            let (diag, up) = if i == 1 {
                (row[y - 1], row[y])
            } else {
                let bb = y - (base + s);
                (lo[i - 1][bb - 1], lo[i - 1][bb])
            };
            plane[rel] = lcs_update(diag, up, plane[rel - 1], ca, b[y - 1]);
        }
        right_col[i] = plane[y1 - base];
    }
    // Final level VL.
    {
        let below = &sc.tail[VL - 1]; // based at y_max
        let ca = a_tile[VL - 1];
        for y in y_max + 1..=y1 {
            let rel = y - y_max;
            row[y] = lcs_update(below[rel - 1], below[rel], row[y - 1], ca, b[y - 1]);
        }
        right_col[VL] = row[y1];
    }
}

/// Advance the full DP row by [`VL`] sequence-`A` positions (whole-row
/// temporal tile — the non-blocked configuration).
pub fn tile(
    engine: Engine,
    row: &mut [i32],
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    sc: &mut ScratchLcs<VL>,
) {
    let (zeros, mut sink) = ([0i32; VL + 1], [0i32; VL + 1]);
    tile_seg(engine, row, 1, b.len(), a_tile, b, s, &zeros, &mut sink, sc);
}

/// One scalar DP row step over the whole row (left boundary column 0).
pub fn scalar_row_step(row: &mut [i32], ca: u8, b: &[u8]) {
    scalar_row_step_seg(row, ca, b, 1, b.len(), 0, 0);
}

/// Compute the final DP row `lcs[a.len()][0..=b.len()]` with the temporal
/// scheme (stride `s`) on `engine`. Bit-identical to
/// `tempora_stencil::reference::lcs_final_row`.
pub fn final_row(engine: Engine, a: &[u8], b: &[u8], s: usize) -> Vec<i32> {
    let mut row = vec![0i32; b.len() + 1];
    if b.is_empty() {
        return row;
    }
    let mut sc = ScratchLcs::new(s);
    let tiles = a.chunks_exact(VL);
    let rest = tiles.remainder();
    for a_tile in tiles {
        tile(engine, &mut row, a_tile, b, s, &mut sc);
    }
    for &ca in rest {
        scalar_row_step(&mut row, ca, b);
    }
    row
}

/// LCS length via the temporal scheme on `engine`.
pub fn length(engine: Engine, a: &[u8], b: &[u8], s: usize) -> i32 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Panic-justification: `b` is non-empty (checked above), so the final
    // row has `b.len()` entries and `last()` is always Some.
    *final_row(engine, a, b, s).last().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::random_sequence;
    use tempora_stencil::reference;

    #[test]
    fn fused_update_matches_lcs_update_pack() {
        // The one vector formula of the steady state, in every register
        // form this host has, must agree with the scalar `lcs_update` lane
        // for lane — and wrap where `diag + 1` overflows (lane 3), which
        // the scalar form is never asked.
        let diag = [0, 3, -1, i32::MAX, 7, 2, 5, 1];
        let (up, left) = ([-4, -1, 2, 5, 8, 11, 14, 17], [6, 5, 4, 3, 2, 1, 0, -1]);
        let (a, b) = ([0u8, 1, 2, 1, 1, 2, 0, 1], [0u8, 1, 0, 1, 0, 1, 0, 1]);
        let gold = Pack::<i32, 8>::from_fn(|i| match diag[i] {
            i32::MAX => i32::MIN,
            d => lcs_update(d, up[i], left[i], a[i], b[i]),
        });
        fn fused<L: I32Lanes<8>>(isa: L, ops: [[i32; 8]; 5]) -> Pack<i32, 8> {
            let [diag, up, left, a, b] = ops.map(|v| isa.load(Pack(v)));
            isa.store(lcs_update_pack(isa, diag, up, left, a, b))
        }
        let ops = [diag, up, left, a.map(i32::from), b.map(i32::from)];
        assert_eq!(fused(Packs, ops), gold);
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = tempora_simd::arch::Ymm::detect() {
            assert_eq!(fused(isa, ops), gold);
        }
    }

    #[test]
    fn final_row_matches_reference() {
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
                let ours = final_row(Engine::Portable, &a, &b, s);
                let gold = reference::lcs_final_row(&a, &b);
                assert_eq!(ours, gold, "la={la} lb={lb} s={s}");
            }
        }
    }

    #[test]
    fn vl4_variant_matches_reference() {
        let a = random_sequence(30, 3, 1);
        let b = random_sequence(77, 3, 2);
        for s in 1..=4 {
            let mut row = vec![0i32; b.len() + 1];
            let mut sc = ScratchLcs::<4>::new(s);
            let (zeros, mut sink) = ([0i32; 5], [0i32; 5]);
            for a_tile in a.chunks_exact(4) {
                tile_seg_in(
                    Packs,
                    &mut row,
                    1,
                    b.len(),
                    a_tile,
                    &b,
                    s,
                    &zeros,
                    &mut sink,
                    &mut sc,
                );
            }
            for &ca in a.chunks_exact(4).remainder() {
                scalar_row_step(&mut row, ca, &b);
            }
            assert_eq!(row, reference::lcs_final_row(&a, &b));
        }
    }

    #[test]
    fn length_known_answers() {
        assert_eq!(length(Engine::Portable, b"ABCBDAB", b"BDCABA", 1), 4);
        assert_eq!(length(Engine::Portable, b"GATTACA", b"GATTACA", 2), 7);
        assert_eq!(length(Engine::Portable, b"AAAA", b"BBBB", 1), 0);
        assert_eq!(length(Engine::Portable, b"", b"ABC", 1), 0);
        assert_eq!(length(Engine::Portable, b"ABCDEFGHIJKLMNOP", b"", 1), 0);
    }

    #[test]
    fn binary_alphabet_stress() {
        for seed in 0..5 {
            let a = random_sequence(48, 2, seed);
            let b = random_sequence(96, 2, seed + 100);
            assert_eq!(
                length(Engine::Portable, &a, &b, 1),
                *reference::lcs_final_row(&a, &b).last().unwrap()
            );
        }
    }

    #[test]
    fn tiny_b_falls_back_to_scalar() {
        let a = random_sequence(16, 4, 9);
        let b = random_sequence(5, 4, 10);
        assert_eq!(
            final_row(Engine::Portable, &a, &b, 1),
            reference::lcs_final_row(&a, &b)
        );
    }

    #[test]
    fn segmented_tiles_stitch_exactly() {
        // Process the table in column blocks, threading the column edges
        // through tile_seg, and compare every block boundary against the
        // full-table reference.
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
                            Engine::Portable,
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
                        // Exported east column must match the table.
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
                // Final rows match.
                let gold_row = &gold_table[(la / 8 * 8) * w..(la / 8 * 8) * w + w];
                assert_eq!(&row[..], gold_row);
            }
        }
    }
}
