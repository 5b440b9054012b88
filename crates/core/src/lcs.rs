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
//! of the row: the scalar prologue (the head triangles, from column 1
//! with the table's zero west edge), the steady state over the anchors
//! `1 ..= y_max` (`y_max = lb - VL·s`) and the scalar epilogue (the tail
//! triangles up to column `lb`). [`sweep`] runs any range `ys` of those
//! anchors — the prologue when `ys` starts at 1, the epilogue when it ends
//! at `y_max` — and leaves everything the sweep has in flight (the ring
//! of `s + 1` input vectors and the last output vector) in its scratch, so
//! the parts of one sweep can run as separate tasks in ascending order,
//! as the grid kinds' sweeps do. That is how `tempora_tiling::LcsRect`
//! cuts the table into block columns: one sweep per band, resumed at each
//! block boundary, with no per-block triangles.
//!
//! # `B` from a lane layout
//!
//! Lane `l` of `B(y)` is `b[y - 1 + (VL-1-l)·s]`. In the reversed
//! sequence split into its `s` residue classes and widened to `i32`
//! ([`BLanes`]), the `VL` characters of every `B(y)` are contiguous, so
//! the strides whose ring lives in registers
//! ([`crate::lcs_avx2::REGISTER_STRIDES`]) read each `B(y)` with one
//! contiguous load, which folds into the compare. The layout is built
//! once per run, in `O(lb)`. Wider strides keep the strided byte load.
//!
//! # One steady state, three engines
//!
//! The steady state is written once, generic over the register form it
//! computes in ([`tempora_simd::I32Lanes`]): `ring_regs`, with every
//! vector in a register, for the strides in
//! [`crate::lcs_avx2::REGISTER_STRIDES`], and one rolled loop that keeps
//! the ring in scratch for wider ones. [`sweep`] takes the resolved
//! [`Engine`]: portable runs it in `Packs` for baseline x86-64, AVX2 in
//! `Ymm` inside the sandwich of [`crate::lcs_avx2`] — `vpcmpeqd` with the
//! `B` load folded in, `vpaddd`/`vpmaxsd`, `vpblendvb`, and one `vpermd`
//! plus one `vpblendd` per produced vector — and AVX-512 the same source
//! at sixteen lanes in `Zmm`: `vpcmpeqd` into a mask register, a masked
//! `vpsubd`, and one `valignd` per produced vector.

use crate::engine::{wider_pays, Engine};
use core::ops::RangeInclusive;
use tempora_simd::{I32Lanes, Pack, Packs};
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

/// The narrowest `B` at which `Select::Auto` runs LCS at sixteen lanes:
/// measured, not derived. Untiled `n × n` tables at stride 2, sixteen
/// over eight lanes, read 0.70–0.72 at 128, 0.81–0.88 at 256, 0.99–1.18
/// at 512, 1.27–1.42 at 1024, 1.54–1.72 at 2048 and 2.02–2.32 at 8192
/// (2-vCPU AVX-512 container, five runs of `repro ablate-vl`, which prints
/// the rows): the smallest power of two that won every reading. Below it
/// the sixteen-lane head and tail triangles, four times the eight-lane
/// ones, outweigh the steady state.
pub const WIDE_MIN_LB: usize = 1024;

/// True when a band sweep of `vl` rows fits an `la × lb` table whose
/// columns are cut every `yblock`: a whole band exists (`la ≥ vl`) and
/// **every** block column — the ragged last one included — is wider than
/// `vl·s`, so each holds at least one anchor and the epilogue's columns
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

/// Everything one LCS band sweep has in flight at stride `s`, handed from
/// part to part and reusable by the next sweep.
///
/// The boundary phases compute one level (DP row) at a time from the
/// level below, as [`crate::t1d::Scratch1d`] does, so two planes of
/// `VL·s + 2` cells are all they keep: the prologue's level `k` over the
/// columns `0 ..= (VL-k)·s`, the epilogue's level `i` re-based at
/// `y_max + (VL-1-i)·s` — `O(VL·s)` cells at any lane count, where a
/// plane per level would be `O(VL²·s)`.
pub struct ScratchLcs<const VL: usize> {
    /// The two planes, end to end.
    planes: Vec<i32>,
    /// The in-flight input vectors: slot `y % (s+1)` holds `V(y)`.
    ring: Vec<Pack<i32, VL>>,
    /// The last output vector `O(y)` of the anchors run so far.
    o_prev: Pack<i32, VL>,
}

impl<const VL: usize> ScratchLcs<VL> {
    /// Allocate scratch for stride `s`.
    pub fn new(s: usize) -> Self {
        ScratchLcs {
            planes: vec![0; 2 * (VL * s + 2)],
            ring: vec![Pack::splat(0); s + 1],
            o_prev: Pack::splat(0),
        }
    }
}

/// A band sweep's scratch at its engine's lane count ([`vl`]).
pub enum LcsScratch {
    /// Eight lanes: the portable and AVX2 engines.
    Vl8(ScratchLcs<VL>),
    /// Sixteen lanes: [`Engine::Avx512`].
    Vl16(ScratchLcs<WIDE_VL>),
}

impl LcsScratch {
    /// Allocate scratch for `engine`'s sweeps at stride `s`.
    pub fn new(engine: Engine, s: usize) -> Self {
        match engine {
            Engine::Avx512 => LcsScratch::Vl16(ScratchLcs::new(s)),
            Engine::Portable | Engine::Avx2 => LcsScratch::Vl8(ScratchLcs::new(s)),
        }
    }
}

/// `B` as the register-ring steady state reads it: the reversed sequence
/// `r[i] = b[lb-1-i]`, split into its `s` residue classes, each widened to
/// `i32` and padded to `⌈lb/s⌉` — `data[c·⌈lb/s⌉ + k] = r[c + k·s]`. Lane `l`
/// of `B(y)` is `r[base + l·s]` with `base = lb - y - (VL-1)·s`, so `B(y)`
/// is `VL` consecutive values of one class, whatever the lane count.
/// Empty for a stride outside [`crate::lcs_avx2::REGISTER_STRIDES`]: the
/// rolled loop loads its characters strided.
#[derive(Clone, Debug, Default)]
pub struct BLanes {
    s: usize,
    lb: usize,
    /// `⌈lb/s⌉`: the padded length of a residue class.
    class: usize,
    data: Vec<i32>,
}

impl BLanes {
    /// Allocate the layout of a `B` of `lb` characters at stride `s`
    /// (nothing outside [`crate::lcs_avx2::REGISTER_STRIDES`]).
    pub fn new(lb: usize, s: usize) -> Self {
        if !crate::lcs_avx2::REGISTER_STRIDES.contains(&s) {
            return BLanes::default();
        }
        let class = lb.div_ceil(s);
        BLanes {
            s,
            lb,
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
                let i = c + k * self.s;
                *v = if i < self.lb {
                    b[self.lb - 1 - i] as i32
                } else {
                    0
                };
            }
        }
    }

    /// Index of lane 0 of `B(y)` at `vl` lanes. Valid for
    /// `1 ≤ y ≤ lb - (vl-1)·s`: the `vl` values from it on are then
    /// `b[y-1 + (vl-1-l)·s]` for `l = 0 ..`, all inside their class.
    #[inline(always)]
    fn at(&self, vl: usize, y: usize) -> usize {
        let base = self.lb - y - (vl - 1) * self.s;
        base % self.s * self.class + base / self.s
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
/// (bit-identical either way): the prologue when `ys` starts at 1, the
/// steady state over `ys`, the epilogue when `ys` ends at `y_max`.
///
/// * `row` holds `lcs[x0][·]` on entry and `lcs[x0+VL][·]` on exit of the
///   whole sweep; a part writes `row[y]` for `y ∈ ys` (and the epilogue
///   `(y_max, lb]`), and reads `row` from `ys.start()` (from column 0
///   with the prologue) to `ys.end() + VL·s`;
/// * `a_band` = `A[x0+1 ..= x0+VL]`; `b` is the whole second sequence and
///   `bl` its [`BLanes`] at stride `s`, filled;
/// * `sc` comes from [`LcsScratch::new`] for the same engine and carries
///   the sweep from part to part; a `std::arch` engine needs a CPU with
///   its features.
///
/// # Panics
/// Panics when the row cannot host the sweep (`b.len() ≤ VL·s`), when
/// `ys` leaves `1 ..= y_max`, or when `sc` was allocated for another lane
/// count.
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
    sc: &mut LcsScratch,
) {
    match (engine, sc) {
        #[cfg(target_arch = "x86_64")]
        (Engine::Avx512, LcsScratch::Vl16(sc)) => {
            crate::lcs_avx2::sweep_zmm(crate::engine::zmm(), row, a_band, b, bl, s, ys, sc)
        }
        #[cfg(target_arch = "x86_64")]
        (Engine::Avx2, LcsScratch::Vl8(sc)) => {
            crate::lcs_avx2::sweep(crate::engine::ymm(), row, a_band, b, bl, s, ys, sc)
        }
        (Engine::Portable, LcsScratch::Vl8(sc)) => sweep_in(Packs, row, a_band, b, bl, s, ys, sc),
        (engine, _) => panic!("sweep scratch was allocated for another engine than {engine:?}"),
    }
}

/// [`sweep`] at any lane count, computing in `isa`'s registers, in the
/// caller's codegen context.
// Justification: `sweep`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn sweep_in<const VL: usize, L: I32Lanes<VL>>(
    isa: L,
    row: &mut [i32],
    a_band: &[u8],
    b: &[u8],
    bl: &BLanes,
    s: usize,
    ys: RangeInclusive<usize>,
    sc: &mut ScratchLcs<VL>,
) {
    let (y0, y1) = ys.into_inner();
    let lb = b.len();
    let y_max = match VL.checked_mul(s) {
        Some(reach) if s >= 1 && reach < lb => lb - reach,
        _ => panic!("a row of {lb} columns cannot host the sweep at stride {s}"),
    };
    assert!(a_band.len() == VL && row.len() == lb + 1);
    assert!(
        1 <= y0 && y0 <= y1 && y1 <= y_max,
        "anchors {y0}..={y1} of 1..={y_max}"
    );
    assert_eq!(sc.ring.len(), s + 1, "scratch of another stride");
    if y0 == 1 {
        prologue::<VL>(row, a_band, b, s, sc);
    }
    steady::<VL, L>(isa, row, y0, y1, a_band, b, bl, s, sc);
    if y1 == y_max {
        epilogue::<VL>(row, a_band, b, s, sc);
    }
}

/// Phase 1 of a band sweep: the scalar head wavefront triangles for
/// levels `1..VL` from column 1 with the table's zero west edge, the
/// initial input-vector ring `V(0) ..= V(s)` and the initial output
/// vector `O(0)`.
///
/// Level `k = 1 .. VL` is computed into one of the two planes, `plane[j]
/// = lcs[x0+k][j]` for `j ∈ 0 ..= (VL-k)·s`, from level `k - 1` in the
/// other (the row for `k = 1`; its column 0 is the zero edge), and
/// gathered as soon as it is done: lane `k` of `V(y)` is level `k` at
/// column `y + (VL-1-k)·s`, lane `k - 1` of `O(0)` level `k` at column
/// `(VL-k)·s` (its top lane is the zero edge's level `VL`).
fn prologue<const VL: usize>(
    row: &[i32],
    a_band: &[u8],
    b: &[u8],
    s: usize,
    sc: &mut ScratchLcs<VL>,
) {
    let ScratchLcs {
        planes,
        ring,
        o_prev,
    } = sc;
    // The ring holds V(0) ..= V(s), slot j = j — the anchor one left of
    // the first steady iteration, as in Algorithm 3 lines 5-7. Lane 0 is
    // the row.
    for j in 0..=s {
        ring[j].0[0] = row[j + (VL - 1) * s];
    }
    *o_prev = Pack::splat(0);
    let (mut below, mut plane) = planes.split_at_mut(VL * s + 2);
    for k in 1..VL {
        let hi = (VL - k) * s;
        plane[0] = 0;
        let ca = a_band[k - 1];
        for j in 1..=hi {
            let (diag, up) = if k == 1 {
                (row[j - 1], row[j])
            } else {
                (below[j - 1], below[j])
            };
            plane[j] = lcs_update(diag, up, plane[j - 1], ca, b[j - 1]);
        }
        for j in 0..=s {
            ring[j].0[k] = plane[j + (VL - 1 - k) * s];
        }
        o_prev.0[k - 1] = plane[hi];
        core::mem::swap(&mut below, &mut plane);
    }
}

/// Phase 2 of a band sweep: the §3.4 steady state
/// `O(y) = select(eq, diag + 1, max(up, left))` over the anchors
/// `y ∈ [y0, y1]`, in `isa`'s registers — the one dispatch on the stride —
/// from and back into the ring and output vector of `sc`.
///
/// The strides in [`crate::lcs_avx2::REGISTER_STRIDES`] run [`ring_regs`].
/// Wider ones run the rolled loop below, which keeps the ring in scratch
/// at one read and one write per iteration — the write at column `y`
/// lands in the very slot the diagonal operand was read from
/// (`y+s ≡ y-1 mod s+1`), so `diag` is the previous iteration's `up`
/// vector, carried in a register — and loads the characters strided.
// Justification: `sweep`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn steady<const VL: usize, L: I32Lanes<VL>>(
    isa: L,
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_band: &[u8],
    b: &[u8],
    bl: &BLanes,
    s: usize,
    sc: &mut ScratchLcs<VL>,
) {
    // Per-band constant: lane i compares against A[x0+1+i].
    let a_vec = isa.load(Pack::from_fn(|i| a_band[i] as i32));
    let o_prev = isa.load(sc.o_prev);
    let ring = &mut sc.ring;
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
    sc.o_prev = isa.store(o_prev);
}

/// The steady state with every vector in a register. `S` is the stride
/// and `R = S + 1` the ring length, as constants: the loop is unrolled
/// `S·R`-wide so all ring indices below are compile-time — iteration `y`
/// reads the diagonal `V(y-1)` and `V(y)` from `v[k % R]` and
/// `v[(k+1) % R]` and overwrites the dead diagonal with the `V(y+S)` it
/// produces (`y+S ≡ y-1 mod R`). Slot `j` always holds a `V(m)` with
/// `m ≡ y0-1+j (mod R)`, wherever the sweep stops, so the ring is read
/// from scratch before the loop and written back after it for the next
/// part or the epilogue; the last output vector is returned.
///
/// `B(y)` is one contiguous load from the lane layout `bl`: for the
/// iteration `k = m·S + j` of a chunk it starts `m` values before
/// `B(y_chunk + j)`, which steps back `R` values per chunk — one index per
/// residue, stepped once per `S·R` iterations.
// Justification: `sweep`'s contract, argument for argument.
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
    // `sweep_in` establishes it (`y1 + VL·S ≤ lb`).
    let lb = bl.lb;
    assert!(y0 >= 1 && y1 + VL * S <= lb && lb + 1 == row.len() && bl.s == S);
    let mut v = [o_prev; R];
    for (j, v) in v.iter_mut().enumerate() {
        *v = isa.load(ring[(y0 - 1 + j) % R]);
    }
    let mut at: [usize; S] = core::array::from_fn(|j| bl.at(VL, y0 + j));
    let data = &bl.data[..];
    let mut y = y0;
    'sweep: loop {
        for k in 0..S * R {
            if y > y1 {
                break 'sweep;
            }
            let b = at[k % S] - k / S;
            // SAFETY: `1 ≤ y ≤ y1`, so `y`, `y + VL·S` (in `row`) and
            // `b .. b + VL` — `B(y)`'s lanes, `b = BLanes::at(VL, y)` —
            // are in bounds by the hoisted assert above.
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

/// Phase 3 of a band sweep: drain the surviving ring level by level and
/// finish every level scalar-wise up to `lb` — level `i` in one of the
/// two planes, re-based at `y_max + (VL-1-i)·s`, from level `i - 1` in the
/// other (the row for `i = 1`). The ring must hold `V(j)` at slot
/// `j % (s+1)` for `j ∈ y_max ..= y_max+s`, as the steady state leaves it.
fn epilogue<const VL: usize>(
    row: &mut [i32],
    a_band: &[u8],
    b: &[u8],
    s: usize,
    sc: &mut ScratchLcs<VL>,
) {
    let lb = b.len();
    let y_max = lb - VL * s;
    let ScratchLcs { planes, ring, .. } = sc;
    let (mut below, mut plane) = planes.split_at_mut(VL * s + 2);
    for i in 1..VL {
        let base = y_max + (VL - 1 - i) * s;
        for j in y_max..=y_max + s {
            plane[j - y_max] = ring[j % (s + 1)].extract(i);
        }
        let ca = a_band[i - 1];
        for y in base + s + 1..=lb {
            let rel = y - base;
            let (diag, up) = if i == 1 {
                (row[y - 1], row[y])
            } else {
                let bb = y - (base + s);
                (below[bb - 1], below[bb])
            };
            plane[rel] = lcs_update(diag, up, plane[rel - 1], ca, b[y - 1]);
        }
        core::mem::swap(&mut below, &mut plane);
    }
    // Final level VL; level VL-1 (`below`) is based at y_max.
    let ca = a_band[VL - 1];
    for y in y_max + 1..=lb {
        let rel = y - y_max;
        row[y] = lcs_update(below[rel - 1], below[rel], row[y - 1], ca, b[y - 1]);
    }
}

/// One scalar DP row step over the whole row (left boundary column 0).
pub fn scalar_row_step(row: &mut [i32], ca: u8, b: &[u8]) {
    scalar_row_step_seg(row, ca, b, 1, b.len(), 0, 0);
}

/// Compute the final DP row `lcs[a.len()][0..=b.len()]` with the temporal
/// scheme (stride `s`) on `engine`: one whole-row band sweep per `VL`
/// rows, then the remaining rows as scalar steps — all of them when no
/// band fits ([`bands_fit`]). Bit-identical to
/// `tempora_stencil::reference::lcs_final_row`.
pub fn final_row(engine: Engine, a: &[u8], b: &[u8], s: usize) -> Vec<i32> {
    let (lb, vl) = (b.len(), vl(engine));
    let mut row = vec![0i32; lb + 1];
    let mut done = 0;
    if lb > 0 && bands_fit(vl, a.len(), lb, lb, s) {
        let mut sc = LcsScratch::new(engine, s);
        let mut bl = BLanes::new(lb, s);
        bl.fill(b);
        let ys = 1..=lb - vl * s;
        for a_band in a.chunks_exact(vl) {
            sweep(engine, &mut row, a_band, b, &bl, s, ys.clone(), &mut sc);
        }
        done = a.len() / vl * vl;
    }
    for &ca in &a[done..] {
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

/// Whether `Select::Auto`'s sixteen lanes pay for an `la × lb` table
/// whose band sweeps fit at both widths: `B` at least [`WIDE_MIN_LB`]
/// wide, and `la` rows leaving no more scalar rows at sixteen lanes than
/// at eight — the grid kinds' steps rule ([`wider_pays`]).
pub(crate) fn wide_pays(la: usize, lb: usize) -> bool {
    lb >= WIDE_MIN_LB && wider_pays(la, VL)
}

#[cfg(test)]
pub(crate) mod tests {
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
                let ours = final_row(Engine::Portable, &a, &b, s);
                let gold = reference::lcs_final_row(&a, &b);
                assert_eq!(ours, gold, "la={la} lb={lb} s={s}");
            }
        }
    }

    /// Whole-row band sweeps at `VL` lanes in `isa`, strides `1 ..= 4`.
    pub(crate) fn variant_matches_reference<const VL: usize, L: I32Lanes<VL>>(
        isa: L,
        a: &[u8],
        b: &[u8],
    ) {
        for s in 1..=4 {
            let mut row = vec![0i32; b.len() + 1];
            let mut sc = ScratchLcs::<VL>::new(s);
            let mut bl = BLanes::new(b.len(), s);
            bl.fill(b);
            for a_band in a.chunks_exact(VL) {
                let ys = 1..=b.len() - VL * s;
                sweep_in(isa, &mut row, a_band, b, &bl, s, ys, &mut sc);
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
        // scalar remainder, every row hosting the sweep (77 > 16·4).
        let a = random_sequence(40, 3, 1);
        let b = random_sequence(77, 3, 2);
        variant_matches_reference::<4, _>(Packs, &a, &b);
        variant_matches_reference::<16, _>(Packs, &a, &b);
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = tempora_simd::arch::Zmm::detect() {
            variant_matches_reference::<16, _>(isa, &a, &b);
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
        let mut sc: Vec<LcsScratch> = (0..slots).map(|_| LcsScratch::new(engine, s)).collect();
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
    /// wrote and the final row, at strides 1 and 2 (`B` from the layout)
    /// and 3 (strided), over block columns one past, two and three times
    /// the sweep's reach, and a ragged last one just past it.
    pub(crate) fn bands_stitch_exactly(engine: Engine) {
        let vl = vl(engine);
        let a = random_sequence(4 * vl + 3, 3, 5);
        let n_t = a.len() / vl;
        for s in 1..=3 {
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
        // `B(y)`'s lanes from the layout are the strided characters, at
        // both lane counts and both register strides, for every anchor.
        let b = random_sequence(203, 251, 3);
        for s in crate::lcs_avx2::REGISTER_STRIDES {
            let mut bl = BLanes::new(b.len(), s);
            bl.fill(&b);
            assert_eq!(bl.data.len(), s * b.len().div_ceil(s));
            for vl in [VL, WIDE_VL] {
                for y in 1..=b.len() - vl * s {
                    let at = bl.at(vl, y);
                    for l in 0..vl {
                        let want = b[y - 1 + (vl - 1 - l) * s] as i32;
                        assert_eq!(bl.data[at + l], want, "s={s} vl={vl} y={y} lane {l}");
                    }
                }
            }
        }
        // No layout where the rolled loop runs, and none for a stride no
        // row reaches.
        assert!(BLanes::new(1000, 3).data.is_empty());
        assert!(BLanes::new(1000, usize::MAX / 4 + 2).data.is_empty());
    }
}
