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
//! `VL` consecutive `A`-positions (`i32` lanes: [`VL`] = 8 on the portable
//! and AVX2 engines, [`WIDE_VL`] = 16 on [`Engine::Avx512`]); per inner
//! iteration the kernel needs
//!
//! * `diag` = `V(y-1)`, `up` = `V(y)` (input-vector ring),
//! * `left` = `O(y-1)` (previous output vector — the Gauss-Seidel rule),
//! * the character equality mask: lane `i` compares `A[x0+1+i]` (a
//!   per-band constant vector) against `B[y + (VL-1-i)·s]` — the paper's
//!   "variable coefficient" `B(y)`,
//!
//! and produces `O(y) = select(eq, diag + 1, max(up, left))` — the
//! paper's "blend instruction with a mask vector of equalities". The
//! sweep state is a single rolling row (the paper's `lcsA`/`lcsB`
//! wavefront arrays), updated in place.
//!
//! # One resumable sweep per band
//!
//! A *band* is `VL` consecutive DP rows, advanced by one temporal sweep
//! of the row — the 1-D sweep of [`crate::t1d`], the one Heat-1D and
//! GS-1D run: the masked front (whose lanes left of column 1 keep the
//! table's zero west edge), the steady state over the anchors
//! `1 ..= y_max` (`y_max = lb - VL·s`: no old east operand, so one anchor
//! less than a 3-point kernel's) and the masked back (whose lanes past
//! column `lb` are discarded) — `(2·VL-1)·s` vector iterations where the
//! scalar triangles were `VL(VL-1)·s` cells. [`sweep`] runs any range
//! `ys` of the steady anchors — the front when `ys` starts at 1, the back
//! when it ends at `y_max` — and leaves the ring of `s + 1` input vectors
//! and the last output vector in its scratch, a
//! [`crate::t1d::Scratch1d`], so the parts of one sweep can run as
//! separate tasks in ascending order. That is how
//! `tempora_tiling::LcsRect` cuts the table into block columns: one sweep
//! per band, resumed at each block boundary. What LCS brings to that
//! sweep is its kernel: the band's `A`, `B`'s lane layout, its vector
//! update and its steady state.
//!
//! # `B` from a lane layout
//!
//! Lane `l` of `B(y)` is `b[y - 1 + (VL-1-l)·s]`. In the reversed
//! sequence split into its `s` residue classes and widened to `i32`
//! ([`BLanes`], padded at both ends for the masked lanes), the `VL`
//! characters of every `B(y)` are contiguous: one load, which folds into
//! the compare at the strides whose ring lives in registers
//! ([`REGISTER_STRIDES`]). Wider strides' steady state
//! keeps the strided byte load. The layout is built once per run, in
//! `O(lb)`.
//!
//! # One steady state, three engines
//!
//! The steady state is written once, generic over the register form it
//! computes in ([`tempora_simd::I32Lanes`]): `ring_regs`, with every
//! vector in a register, for the strides in
//! [`REGISTER_STRIDES`], and one rolled loop that keeps
//! the ring in scratch for wider ones. [`sweep`] takes the resolved
//! [`Engine`] and hands the band to the 1-D sweep's one engine dispatch
//! (`t1d::sweep`): portable runs it in `Packs` for baseline
//! x86-64, AVX2 in `Ymm` inside the AVX2 sandwich
//! ([`tempora_simd::arch::Ymm::run`]) —
//! `vpcmpeqd` with the `B` load folded in, `vpaddd`/`vpmaxsd`,
//! `vpblendvb`, and one `vpermd` plus one `vpblendd` per produced vector —
//! and AVX-512 the same source at sixteen lanes in `Zmm`: `vpcmpeqd` into
//! a mask register, a masked `vpsubd`, and one `valignd` per produced
//! vector. [`resolve`] is how a run picks its engine.

use crate::engine::{Engine, ScratchVl, Select, SweepCost};
use crate::t1d::{self, Form, Line, Scratch1d};
use core::ops::RangeInclusive;
use tempora_simd::{I32Lanes, Pack};
use tempora_stencil::{lcs_update, lcs_update_pack};

/// The integer vector length of the portable and AVX2 LCS engines (8 ×
/// i32 lanes, one `ymm` — the paper's "theoretical maximal speedup of 8").
pub const VL: usize = 8;

/// The lane count of [`Engine::Avx512`]'s LCS sweep (16 × i32, one `zmm`).
pub const WIDE_VL: usize = 16;

/// Lane count of `engine`'s LCS sweep: [`WIDE_VL`] on [`Engine::Avx512`],
/// [`VL`] otherwise.
pub fn vl(engine: Engine) -> usize {
    match engine {
        Engine::Avx512 => WIDE_VL,
        Engine::Portable | Engine::Avx2 => VL,
    }
}

/// LCS's width formula (`la` rows over `B`, [`SweepCost`]): `c(lcs, 8)`
/// is the eight-lane reading of the untiled 8192²; the fit multiples are
/// 1.01 and 0.75. Where sixteen-lane bands fit ([`bands_fit`]) they win
/// at every `B` when `la mod 16 < 8`; when `la mod 16 ≥ 8`, their eight
/// more scalar rows keep tables of fewer than 88 rows on eight lanes.
pub const COST: SweepCost = SweepCost {
    anchor: [1.72, 1.74],
    scalar: 1.29,
};

/// The strides whose steady state keeps the input-vector ring in
/// registers and reads `B(y)` from the lane layout (one unrolled
/// instantiation each, see `ring_regs`); wider strides index the ring in
/// scratch memory and load the characters strided.
pub const REGISTER_STRIDES: RangeInclusive<usize> = 1..=2;

/// Resolve `sel` for the band sweeps of an `la × lb` table whose columns
/// are cut every `yblock`, at stride `s`: the engine [`Select::resolve`]
/// gives where eight-lane bands fit ([`bands_fit`]) — portable where they
/// do not: LCS is integer code, one and the same in every engine's
/// context, so a shape without a band runs the portable scalar rows and
/// reports them. Where sixteen-lane bands fit, the grid kinds' width rule
/// ([`SweepCost::widen`] on [`COST`], `la` rows over `B`) may widen it.
/// `Select::Avx2` means eight lanes.
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

/// True when a band sweep of `vl` rows fits an `la × lb` table whose
/// columns are cut every `yblock`: a whole band exists (`la ≥ vl`) and
/// **every** block column — the ragged last one included — is wider than
/// `vl·s`, so each holds at least one anchor and the masked back's columns
/// `(lb - vl·s, lb]` lie in the last one. A stride whose `vl·s` exceeds
/// every column, however large, does not fit.
///
/// # Panics
/// Panics when `yblock == 0`.
pub fn bands_fit(vl: usize, la: usize, lb: usize, yblock: usize, s: usize) -> bool {
    let last = match lb % yblock {
        0 => yblock,
        r => r,
    };
    la >= vl && yblock.min(lb).min(last) > vl.saturating_mul(s)
}

/// A band sweep's scratch at its engine's lane count ([`vl`]): what the
/// parts of one band hand each other, reusable by the next band.
pub type Scratch = ScratchVl<Scratch1d<i32, VL>, Scratch1d<i32, WIDE_VL>>;

/// `B` as a band's vector updates read it: the reversed sequence padded
/// by `pad = (WIDE_VL-1)·s` zeros at both ends, `r[pad + i] = b[lb-1-i]`,
/// split into its `s` residue classes, each widened to `i32` and `class`
/// long — `data[c·class + k] = r[c + k·s]`. The characters at the anchor
/// whose lane 0 lies at column `u`, `b[u - 1 - l·s]` in lane `l`, are then
/// `VL` consecutive values of one class from `j = pad + lb - u` on: one
/// load, for the steady state at [`REGISTER_STRIDES`] and
/// the masked ends at every stride (whose outer lanes read the padding).
/// Empty where no eight-lane band fits a row of `lb` columns.
#[derive(Clone, Debug, Default)]
pub struct BLanes {
    s: usize,
    lb: usize,
    pad: usize,
    /// `⌈(lb + 2·pad)/s⌉`: the length of a residue class.
    class: usize,
    data: Vec<i32>,
}

impl BLanes {
    /// Allocate the layout of a `B` of `lb` characters at stride `s`
    /// (nothing where `VL·s ≥ lb`).
    pub fn new(lb: usize, s: usize) -> Self {
        if VL.saturating_mul(s) >= lb {
            return BLanes::default();
        }
        let pad = (WIDE_VL - 1) * s;
        let class = (lb + 2 * pad).div_ceil(s);
        BLanes {
            s,
            lb,
            pad,
            class,
            data: vec![0; s * class],
        }
    }

    /// Lay out `b`, in `O(lb)`.
    ///
    /// # Panics
    /// Panics when `b` is not `lb` characters long.
    pub fn fill(&mut self, b: &[u8]) {
        if self.data.is_empty() {
            return;
        }
        assert_eq!(b.len(), self.lb, "B does not match its layout");
        for (c, class) in self.data.chunks_exact_mut(self.class).enumerate() {
            for (k, v) in class.iter_mut().enumerate() {
                let i = (c + k * self.s).wrapping_sub(self.pad);
                *v = if i < self.lb {
                    b[self.lb - 1 - i] as i32
                } else {
                    0
                };
            }
        }
    }

    /// Index of lane 0 of the characters at the anchor whose lane 0 lies
    /// at column `u` (`B(y)` at `vl` lanes for `u = y + (vl-1)·s`). Valid
    /// for `1 ≤ u ≤ lb + (vl-1)·s`, `vl ≤` [`WIDE_VL`]: the `vl` values
    /// from it on are then `b[u - 1 - l·s]` for `l = 0 ..`, or padding
    /// where that leaves `B`, all inside their class.
    #[inline(always)]
    fn at(&self, u: usize) -> usize {
        let j = self.pad + self.lb - u;
        j % self.s * self.class + j / self.s
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

/// The anchors `ys ⊆ 1 ..= y_max` (`y_max = b.len() - VL·s`, `VL =`
/// [`vl`]`(engine)`) of one band sweep with the resolved `engine`
/// (bit-identical either way): the masked front when `ys` starts at 1,
/// the steady state over `ys`, the masked back when `ys` ends at `y_max`.
///
/// * `row` holds `lcs[x0][·]` on entry and `lcs[x0+VL][·]` on exit of the
///   whole sweep; a part writes `row[y]` for `y ∈ ys` (and the masked
///   back `(y_max, lb]`), and reads `row` from `ys.start()` (from column 0
///   with the masked front) to `ys.end() + VL·s`;
/// * `a_band` = `A[x0+1 ..= x0+VL]`; `b` is the whole second sequence and
///   `bl` its [`BLanes`] at stride `s`, filled;
/// * `sc` comes from [`Scratch::new`] for the same engine and stride and
///   carries the sweep from part to part; a `std::arch` engine needs a CPU
///   with its features.
///
/// # Panics
/// Panics when the row cannot host the sweep (`b.len() ≤ VL·s`), when
/// `ys` leaves `1 ..= y_max`, or when `sc` was allocated for another lane
/// count or stride.
// Justification: engine, row, sequences, layout, stride, range and carried state are the part's contract.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    engine: Engine,
    row: &mut [i32],
    a_band: &[u8],
    b: &[u8],
    bl: &BLanes,
    s: usize,
    ys: RangeInclusive<usize>,
    sc: &mut Scratch,
) {
    assert!(a_band.len() == vl(engine) && row.len() == b.len() + 1);
    let band = Band::new(a_band, b, bl);
    t1d::sweep::<i32, VL, WIDE_VL, false, _>(engine, row, 0, b.len(), band, s, sc, ys);
}

/// The LCS kernel of one band: `A[x0+1 ..= x0+VL]`, `B` and its lane
/// layout, the recurrence's variable coefficients (§3.4); in a [`Form`],
/// the [`Line`] the 1-D sweep runs a band with.
#[derive(Clone, Copy)]
pub(crate) struct Band<'a> {
    /// Lane `i`: `A[x0+1+i]` (the first `VL` of [`WIDE_VL`]).
    a: Pack<i32, WIDE_VL>,
    b: &'a [u8],
    bl: &'a BLanes,
}

impl<'a> Band<'a> {
    /// The band `a_band` over `b`, laid out in `bl`.
    pub(crate) fn new(a_band: &[u8], b: &'a [u8], bl: &'a BLanes) -> Self {
        let a = Pack::from_fn(|i| a_band.get(i).map_or(0, |&c| c as i32));
        Band { a, b, bl }
    }

    /// The per-band constant of the update at `VL` lanes.
    #[inline(always)]
    fn a_vec<const VL: usize, L: I32Lanes<VL>>(&self, isa: L) -> L::V {
        isa.load(Pack::from_fn(|i| self.a.0[i]))
    }
}

/// LCS on the 1-D sweep: no old east operand (stride 1 is legal), the
/// update `O(y) = select(eq, diag + 1, max(up, left))` with lane `i`
/// comparing `A[x0+1+i]` and `B(y)`'s lane from [`BLanes`], and the
/// steady state over the anchors `y ∈ [y0, y1]` of a whole row
/// (`first = 0`), in `isa`'s registers — the one dispatch on the stride.
/// The strides in [`REGISTER_STRIDES`] run `ring_regs`,
/// whatever the register form. Wider ones run the rolled loop below, which
/// keeps the ring in scratch at one read and one write per iteration — the
/// write at column `y` lands in the very slot the diagonal operand was
/// read from (`y+s ≡ y-1 mod s+1`), so `diag` is the previous iteration's
/// `up` vector, carried in a register — and loads the characters strided.
impl<const VL: usize, L: I32Lanes<VL>> Line<i32, VL> for Form<Band<'_>, L> {
    const MIN_STRIDE: usize = 1;
    type Isa = L;

    #[inline(always)]
    fn isa(&self) -> L {
        self.1
    }

    #[inline(always)]
    fn update(&self, u: usize, left: L::V, diag: L::V, up: L::V, _: L::V) -> L::V {
        let Form(band, isa) = self;
        let b_vec = isa.load_i32(&band.bl.data, band.bl.at(u));
        lcs_update_pack(*isa, diag, up, left, band.a_vec(*isa), b_vec)
    }

    #[inline(always)]
    fn steady<const COUNT: bool, const REGS: bool>(
        &self,
        row: &mut [i32],
        first: usize,
        s: usize,
        ring: &mut [Pack<i32, VL>],
        o_prev: Pack<i32, VL>,
        y0: usize,
        y1: usize,
    ) -> Pack<i32, VL> {
        debug_assert_eq!(first, 0, "a band sweeps a whole row");
        let Form(band, isa) = *self;
        let (a_vec, b, bl) = (band.a_vec(isa), band.b, band.bl);
        let o_prev = isa.load(o_prev);
        let o_prev = match s {
            1 => ring_regs::<1, 2, VL, L>(isa, row, y0, y1, a_vec, bl, ring, o_prev),
            2 => ring_regs::<2, 3, VL, L>(isa, row, y0, y1, a_vec, bl, ring, o_prev),
            _ => {
                let (rlen, mut o_prev) = (s + 1, o_prev);
                let mut diag = isa.load(ring[(y0 + rlen - 1) % rlen]);
                let mut iu = y0 % rlen;
                let mut iw = (y0 + s) % rlen;
                for y in y0..=y1 {
                    let up = isa.load(ring[iu]);
                    // Lane i reads b[y - 1 + (VL-1-i)·s].
                    let b_vec = isa.load_u8(b, y - 1 + (VL - 1) * s, -(s as isize));
                    let o = lcs_update_pack(isa, diag, up, o_prev, a_vec, b_vec);
                    row[y] = isa.top(o);
                    ring[iw] = isa.store(isa.shift_up_insert(o, row[y + VL * s]));
                    o_prev = o;
                    diag = up;
                    iu = if iu + 1 == rlen { 0 } else { iu + 1 };
                    iw = if iw + 1 == rlen { 0 } else { iw + 1 };
                }
                o_prev
            }
        };
        isa.store(o_prev)
    }
}

/// The steady state with every vector in a register. `S` is the stride
/// and `R = S + 1` the ring length, as constants: the loop is unrolled
/// `S·R`-wide so all ring indices below are compile-time — iteration `y`
/// reads the diagonal `V(y-1)` and `V(y)` from `v[k % R]` and
/// `v[(k+1) % R]` and overwrites the dead diagonal with the `V(y+S)` it
/// produces (`y+S ≡ y-1 mod R`). Slot `j` always holds a `V(m)` with
/// `m ≡ y0-1+j (mod R)`, wherever the sweep stops, so the ring is read
/// from scratch before the loop and written back after it for the next
/// part or the masked back; the last output vector is returned.
///
/// `B(y)` is one contiguous load from the lane layout `bl`: for the
/// iteration `k = m·S + j` of a chunk it starts `m` values before
/// `B(y_chunk + j)`, which steps back `R` values per chunk — one index per
/// residue, stepped once per `S·R` iterations.
// Justification: the steady state's contract, argument for argument.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn ring_regs<const S: usize, const R: usize, const VL: usize, L: I32Lanes<VL>>(
    isa: L,
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_vec: L::V,
    bl: &BLanes,
    ring: &mut [Pack<i32, VL>],
    mut o_prev: L::V,
) -> L::V {
    assert!(R == S + 1);
    // The one bound of the loop below: every `row[y]` and `row[y + VL·S]`
    // has `1 ≤ y ≤ y1`, inside a row of `lb + 1` columns, and so does
    // every `B(y)` of the layout (`BLanes::at`), which is `B`'s at `S`.
    // `t1d::sweep_body` establishes it (`y1 + VL·S ≤ lb`).
    let lb = bl.lb;
    assert!(y0 >= 1 && y1 + VL * S <= lb && lb + 1 == row.len() && bl.s == S);
    let mut v = [o_prev; R];
    for (j, v) in v.iter_mut().enumerate() {
        *v = isa.load(ring[(y0 - 1 + j) % R]);
    }
    let mut at: [usize; S] = core::array::from_fn(|j| bl.at(y0 + j + (VL - 1) * S));
    let data = &bl.data[..];
    let mut y = y0;
    'sweep: loop {
        for k in 0..S * R {
            if y > y1 {
                break 'sweep;
            }
            let b = at[k % S] - k / S;
            // SAFETY: `1 ≤ y ≤ y1`, so `y`, `y + VL·S` (in `row`) and
            // `b .. b + VL` — `B(y)`'s lanes, `b = BLanes::at(y +
            // (VL-1)·S)` — are in bounds by the hoisted assert above.
            let (b_vec, bottom) = unsafe {
                let b_vec = isa.load_i32(data.get_unchecked(b..b + VL), 0);
                (b_vec, *row.get_unchecked(y + VL * S))
            };
            let o = lcs_update_pack(isa, v[k % R], v[(k + 1) % R], o_prev, a_vec, b_vec);
            // SAFETY: as above.
            unsafe { *row.get_unchecked_mut(y) = isa.top(o) };
            v[k % R] = isa.shift_up_insert(o, bottom);
            o_prev = o;
            y += 1;
        }
        for at in &mut at {
            // The next chunk's `B(y_chunk + j)`; past the last anchor it
            // is never read, so it may wrap.
            *at = at.wrapping_sub(R);
        }
    }
    for (j, &v) in v.iter().enumerate() {
        ring[(y0 - 1 + j) % R] = isa.store(v);
    }
    o_prev
}

/// One scalar DP row step over the whole row (left boundary column 0).
pub fn scalar_row_step(row: &mut [i32], ca: u8, b: &[u8]) {
    scalar_row_step_seg(row, ca, b, 1, b.len(), 0, 0);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tempora_grid::random_sequence;
    use tempora_simd::Packs;
    use tempora_stencil::reference;

    /// The final DP row of `a` over `b` on `engine` at stride `s`: one
    /// whole-row band sweep per band where bands fit ([`bands_fit`]), then
    /// the rows left over as scalar steps — every row where none fits.
    pub(crate) fn final_row_of(engine: Engine, a: &[u8], b: &[u8], s: usize) -> Vec<i32> {
        let lb = b.len();
        if bands_fit(vl(engine), a.len(), lb, lb.max(1), s) {
            return waved(engine, a, b, s, lb, 1).0;
        }
        let mut row = vec![0; lb + 1];
        for &ca in a {
            scalar_row_step(&mut row, ca, b);
        }
        row
    }

    /// The LCS length of `a` and `b`, from [`final_row_of`].
    pub(crate) fn length_of(engine: Engine, a: &[u8], b: &[u8], s: usize) -> i32 {
        final_row_of(engine, a, b, s)[b.len()]
    }

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
        // Sixteen lanes: the eight above twice, the second half reversed.
        fn fused16<L: I32Lanes<16>>(isa: L, ops: [[i32; 16]; 5]) -> Pack<i32, 16> {
            let [diag, up, left, a, b] = ops.map(|v| isa.load(Pack(v)));
            isa.store(lcs_update_pack(isa, diag, up, left, a, b))
        }
        let wide = ops.map(|v| core::array::from_fn(|i| v[if i < 8 { i } else { 15 - i }]));
        let gold16 = Pack::<i32, 16>::from_fn(|i| gold.0[if i < 8 { i } else { 15 - i }]);
        assert_eq!(fused16(Packs, wide), gold16);
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = tempora_simd::arch::Zmm::detect() {
            assert_eq!(fused16(isa, wide), gold16);
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
                let ours = final_row_of(Engine::Portable, &a, &b, s);
                let gold = reference::lcs_final_row(&a, &b);
                assert_eq!(ours, gold, "la={la} lb={lb} s={s}");
            }
        }
    }

    /// Whole-row band sweeps at `VL` lanes in `isa`, through the 1-D
    /// sweep's [`t1d::sweep_body`], at every stride of `strides`.
    pub(crate) fn variant_matches_reference<const VL: usize, L: I32Lanes<VL>>(
        isa: L,
        a: &[u8],
        b: &[u8],
        strides: &[usize],
    ) {
        for &s in strides {
            let mut row = vec![0i32; b.len() + 1];
            let mut sc = Scratch1d::<i32, VL>::new(s);
            let mut bl = BLanes::new(b.len(), s);
            bl.fill(b);
            for a_band in a.chunks_exact(VL) {
                let ys = 1..=b.len() - VL * s;
                let band = Form(Band::new(a_band, b, &bl), isa);
                let lb = b.len();
                t1d::sweep_body::<i32, VL, false, false, _>(&mut row, 0, lb, &band, s, &mut sc, ys);
            }
            for &ca in a.chunks_exact(VL).remainder() {
                scalar_row_step(&mut row, ca, b);
            }
            assert_eq!(row, reference::lcs_final_row(a, b), "VL={VL} s={s}");
        }
    }

    #[test]
    fn vl4_variant_matches_reference() {
        // Four lanes, and the sixteen of the next integer width — in
        // `Packs` and, where the CPU has it, in `Zmm`: two bands and a
        // scalar remainder, every row hosting the sweep (77 > 16·4), and
        // strides past the 1-D kinds' ring (16) on a row of 600 > 16·33.
        let a = random_sequence(40, 3, 1);
        for (b, strides) in [
            (random_sequence(77, 3, 2), &[1, 2, 3, 4][..]),
            (random_sequence(600, 3, 4), &[17, 33][..]),
        ] {
            variant_matches_reference::<4, _>(Packs, &a, &b, strides);
            variant_matches_reference::<16, _>(Packs, &a, &b, strides);
            #[cfg(target_arch = "x86_64")]
            if let Some(isa) = tempora_simd::arch::Zmm::detect() {
                variant_matches_reference::<16, _>(isa, &a, &b, strides);
            }
        }
    }

    #[test]
    fn length_known_answers() {
        assert_eq!(length_of(Engine::Portable, b"ABCBDAB", b"BDCABA", 1), 4);
        assert_eq!(length_of(Engine::Portable, b"GATTACA", b"GATTACA", 2), 7);
        assert_eq!(length_of(Engine::Portable, b"AAAA", b"BBBB", 1), 0);
        assert_eq!(length_of(Engine::Portable, b"", b"ABC", 1), 0);
        assert_eq!(length_of(Engine::Portable, b"ABCDEFGHIJKLMNOP", b"", 1), 0);
    }

    #[test]
    fn binary_alphabet_stress() {
        for seed in 0..5 {
            let a = random_sequence(48, 2, seed);
            let b = random_sequence(96, 2, seed + 100);
            assert_eq!(
                length_of(Engine::Portable, &a, &b, 1),
                *reference::lcs_final_row(&a, &b).last().unwrap()
            );
        }
    }

    #[test]
    fn tiny_b_falls_back_to_scalar() {
        let a = random_sequence(16, 4, 9);
        let b = random_sequence(5, 4, 10);
        assert_eq!(
            final_row_of(Engine::Portable, &a, &b, 1),
            reference::lcs_final_row(&a, &b)
        );
    }

    /// What one part of [`waved`] left in the row: band `t`'s level at
    /// the columns `lo ..= hi` it wrote.
    pub(crate) type Written = (usize, usize, usize, Vec<i32>);

    /// The band sweeps of `a` over `b` on `engine`, each cut at the block
    /// columns of `block` and run in a wavefront order — part `(t, J)` after
    /// `(t, J-1)`, `(t-1, J)` and `(t-1, J+1)`, in order of `2t + J`, so
    /// that the parts of up to `⌈n_j/2⌉` bands interleave — with band `t`'s
    /// scratch slot `t % slots` (`slots ≥ min(bands, n_j)`, as
    /// `tempora_tiling::LcsRect` allocates), then the scalar remainder
    /// rows. Returns the final row and what every part wrote, as it
    /// wrote it.
    pub(crate) fn waved(
        engine: Engine,
        a: &[u8],
        b: &[u8],
        s: usize,
        block: usize,
        slots: usize,
    ) -> (Vec<i32>, Vec<Written>) {
        let (lb, vl) = (b.len(), vl(engine));
        assert!(bands_fit(vl, a.len(), lb, block, s));
        let (y_max, n_t, n_j) = (lb - vl * s, a.len() / vl, lb.div_ceil(block));
        let mut sc: Vec<Scratch> = (0..slots).map(|_| Scratch::new(engine, s)).collect();
        let mut bl = BLanes::new(lb, s);
        bl.fill(b);
        let (mut row, mut written) = (vec![0i32; lb + 1], vec![]);
        for d in 0..2 * n_t + n_j {
            for t in 0..n_t {
                let Some(j) = d.checked_sub(2 * t).filter(|&j| j < n_j) else {
                    continue;
                };
                let ys = j * block + 1..=((j + 1) * block).min(y_max);
                let (lo, hi) = (*ys.start(), if j + 1 == n_j { lb } else { *ys.end() });
                let a_band = &a[t * vl..(t + 1) * vl];
                sweep(engine, &mut row, a_band, b, &bl, s, ys, &mut sc[t % slots]);
                written.push((t, lo, hi, row[lo..=hi].to_vec()));
            }
        }
        for &ca in &a[n_t * vl..] {
            scalar_row_step(&mut row, ca, b);
        }
        (row, written)
    }

    /// [`waved`] on `engine` against the reference table: what every part
    /// wrote and the final row, at strides 1 and 2 (`B` from the layout),
    /// 3 (strided) and 17 and 33 (past the 1-D kinds' ring of 16), over
    /// block columns one past, two and three times the sweep's reach, and
    /// a ragged last one just past it.
    pub(crate) fn bands_stitch_exactly(engine: Engine) {
        let vl = vl(engine);
        let a = random_sequence(4 * vl + 3, 3, 5);
        let n_t = a.len() / vl;
        for s in [1, 2, 3, 17, 33] {
            for block in [vl * s + 1, 2 * vl * s, 3 * vl * s + 5] {
                let b = random_sequence(5 * block + vl * s + 1, 3, (block + s) as u64);
                let gold = reference::lcs_table(&a, &b);
                let w = b.len() + 1;
                let n_j = b.len().div_ceil(block);
                for slots in [n_j.min(n_t), n_t] {
                    let at = format!("{engine:?} s={s} block={block} slots={slots}");
                    let (row, written) = waved(engine, &a, &b, s, block, slots);
                    assert_eq!(written.len(), n_t * n_j, "{at}");
                    for (t, lo, hi, got) in written {
                        let x = (t + 1) * vl;
                        assert_eq!(
                            got,
                            &gold[x * w + lo..=x * w + hi],
                            "{at} t={t} {lo}..={hi}"
                        );
                    }
                    assert_eq!(&row[..], &gold[a.len() * w..], "{at}");
                }
            }
        }
    }

    #[test]
    fn segmented_tiles_stitch_exactly() {
        // One band sweep per band, cut at every block column and resumed
        // across it — in a wavefront order, several bands in flight.
        bands_stitch_exactly(Engine::Portable);
    }

    #[test]
    fn lane_layout_is_b_at_every_anchor() {
        // The characters a band's update reads from the layout are the
        // strided characters of `B` at both lane counts, for every anchor
        // of a sweep — the masked ends' included, whose lanes past either
        // end of `B` read the zero padding — at the register strides and
        // the rolled ones.
        let b = random_sequence(203, 251, 3);
        for s in [1, 2, 3, 17] {
            let mut bl = BLanes::new(b.len(), s);
            bl.fill(&b);
            let padded = b.len() + 2 * (WIDE_VL - 1) * s;
            assert_eq!(bl.data.len(), s * padded.div_ceil(s));
            for vl in [VL, WIDE_VL] {
                for u in 1..=b.len() + (vl - 1) * s {
                    let at = bl.at(u);
                    for l in 0..vl {
                        let at_b = (u - 1).checked_sub(l * s);
                        let want = at_b.and_then(|i| b.get(i)).map_or(0, |&c| c as i32);
                        assert_eq!(bl.data[at + l], want, "s={s} vl={vl} u={u} lane {l}");
                    }
                }
            }
        }
        // No layout for a stride no eight-lane band reaches.
        for s in [b.len().div_ceil(VL), usize::MAX / 4 + 2] {
            assert!(BLanes::new(b.len(), s).data.is_empty(), "s={s}");
        }
    }
}
