//! Rectangle tiling for the LCS dynamic program (paper §3.4: "LCS allows
//! the rectangle tiling in the iteration space"), with pipelined
//! wavefront parallelism.
//!
//! The DP table is cut into `xblock × yblock` rectangles. Tile `(I, J)`
//! needs tile `(I-1, J)` (the row segment at its top edge, carried by the
//! shared rolling row) and tile `(I, J-1)` (its west column, carried by a
//! per-`J` column buffer — the paper's `lcsA`/`lcsB` wavefront arrays).
//! [`tempora_parallel::Pool::waves`] runs tile `(I, J)` after `(I, J-1)`,
//! `(I-1, J)` and `(I-1, J+1)` — both dependences — and beside no tile
//! nearer than one band and two block columns, so tiles that may run side
//! by side touch disjoint row segments, distinct column buffers and
//! distinct scratch slots.
//!
//! [`LcsRect`] is the reusable workspace form (row, column buffers and
//! per-block temporal scratch allocated once, reused by every
//! [`LcsRect::run`] call — the wavefront runs allocation-free). The
//! temporal in-tile kernel dispatches like the grid tilings: the
//! workspace resolves its [`Select`] once against the AVX2 LCS engine's
//! shape predicate
//! ([`tempora_core::lcs_avx2::rect_has_vector_tiles`] — every block
//! column must host the `vl = 8` vector schedule) and reports the
//! resolved [`Engine`]; degenerate geometries honestly stay portable. It
//! allocates temporal scratch only when some tile can host the vector
//! schedule: every other tile runs scalar rows, which need none.

use tempora_core::engine::{Engine, Select};
use tempora_core::lcs::{scalar_row_step_seg, tile_seg, ScratchLcs, VL};
use tempora_core::lcs_avx2;
use tempora_parallel::{Pool, SyncSlice};

/// Per-tile executor parameters.
struct TileRun<'a> {
    a: &'a [u8],
    b: &'a [u8],
    s: usize,
    /// The engine of the temporal in-tile kernel.
    engine: Engine,
}

impl TileRun<'_> {
    /// Advance the row segment `[y0, y1]` from level `x0` to `x1`
    /// (exclusive upper), reading `left[h] = lcs[x0+h][y0-1]` and filling
    /// `right[h] = lcs[x0+h][y1]` for `h ∈ 0..=x1-x0`: temporal tiles when
    /// given scratch, scalar rows otherwise.
    // Justification: the parameter list is the rectangle-tile contract (sequences, row, columns, scratch, bounds).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        row: &mut [i32],
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
        left: &[i32],
        right: &mut [i32],
        sc: Option<&mut ScratchLcs<VL>>,
    ) {
        let height = x1 - x0;
        right[0] = row[y1];
        let mut done = 0;
        if let Some(sc) = sc {
            let engine = self.engine;
            for base in (0..height / VL).map(|t| t * VL) {
                let a_tile = &self.a[x0 + base..x0 + base + VL];
                let lcol = &left[base..base + VL + 1];
                let rcol = &mut right[base..base + VL + 1];
                tile_seg(engine, row, y0, y1, a_tile, self.b, self.s, lcol, rcol, sc);
            }
            done = height / VL * VL;
        }
        for h in done..height {
            scalar_row_step_seg(row, self.a[x0 + h], self.b, y0, y1, left[h + 1], left[h]);
            right[h + 1] = row[y1];
        }
    }
}

/// Reusable rectangle-tiling workspace for the LCS DP: the rolling row,
/// the per-`J` column buffers and the per-block temporal scratch are
/// allocated once in [`LcsRect::new`] and reused (re-zeroed, not
/// reallocated) by every [`LcsRect::run`] call.
pub struct LcsRect {
    xblock: usize,
    yblock: usize,
    s: usize,
    engine: Option<Engine>,
    la: usize,
    lb: usize,
    row: Vec<i32>,
    cols: Vec<Vec<i32>>,
    /// `scratch[j]`: the temporal scratch of block column `j`; none when
    /// no tile hosts the vector schedule.
    scratch: Vec<ScratchLcs<VL>>,
}

impl LcsRect {
    /// Build a workspace for sequences of lengths `la × lb` with
    /// `xblock × yblock` rectangles and temporal stride `s`. `temporal`
    /// selects the temporally vectorized in-tile kernel ("our") versus
    /// scalar rows ("scalar"); both are exact. `sel` is resolved once,
    /// against the AVX2 steady state's rectangle shape predicate: every
    /// block column (the ragged last one included) must host the
    /// `vl = 8` vector schedule, otherwise the run honestly resolves
    /// portable. Temporal scratch is allocated only when some tile hosts
    /// it: a full `VL`-row band and a segment wider than `VL·s`, however
    /// large `s`.
    ///
    /// # Panics
    /// Panics when `s`, `xblock` or `yblock` is zero (`tempora_plan`
    /// validates these ahead of time and returns a `PlanError` instead).
    pub fn new(
        la: usize,
        lb: usize,
        xblock: usize,
        yblock: usize,
        s: usize,
        temporal: bool,
        sel: Select,
    ) -> Self {
        assert!(s >= 1 && xblock >= 1 && yblock >= 1);
        let n_j = lb.div_ceil(yblock);
        // Column buffers: cols[j][h] = lcs[x0+h][y_j1] for the current
        // tile row I; cols[0] is the (all-zero) table west edge, never
        // written.
        let cols: Vec<Vec<i32>> = (0..n_j + 1).map(|_| vec![0i32; xblock + 1]).collect();
        let vector = temporal && la.min(xblock) >= VL && lb.min(yblock) > VL.saturating_mul(s);
        let slots = if vector { n_j } else { 0 };
        LcsRect {
            xblock,
            yblock,
            s,
            engine: temporal
                .then(|| sel.resolve(lcs_avx2::rect_has_vector_tiles(la, lb, xblock, yblock, s))),
            la,
            lb,
            row: vec![0i32; lb + 1],
            cols,
            scratch: (0..slots).map(|_| ScratchLcs::new(s)).collect(),
        }
    }

    /// The engine the temporal wavefront resolved to (`None` for scalar
    /// rows).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Compute the LCS length of `a` and `b` as a pipelined wavefront on
    /// `pool`. Reusable: internal buffers are re-zeroed, not reallocated.
    ///
    /// # Panics
    /// Panics if the sequence lengths do not match the workspace.
    pub fn run(&mut self, a: &[u8], b: &[u8], pool: &Pool) -> i32 {
        assert_eq!(
            (a.len(), b.len()),
            (self.la, self.lb),
            "sequences do not match workspace geometry"
        );
        let (la, lb) = (self.la, self.lb);
        if la == 0 || lb == 0 {
            return 0;
        }
        let n_i = la.div_ceil(self.xblock);
        let n_j = lb.div_ceil(self.yblock);
        self.row.fill(0);
        for col in &mut self.cols {
            col.fill(0);
        }

        let run = TileRun {
            a,
            b,
            s: self.s,
            engine: self.engine.unwrap_or(Engine::Portable),
        };
        let (xblock, yblock) = (self.xblock, self.yblock);
        {
            let row_shared = SyncSlice::new(&mut self.row);
            let cols_shared = SyncSlice::new(&mut self.cols);
            let scratch_shared = SyncSlice::new(&mut self.scratch);
            pool.waves(n_i, n_j, |i, j| {
                // SAFETY: tile (i, j) writes row[y0..=y1] only, after
                // (i-1, j) wrote it; tiles that may run beside it are at
                // band distance ≥ 1 and block distance ≥ 2, so their
                // segments are disjoint from it.
                let row = unsafe { row_shared.slice_mut() };
                // SAFETY: tile (i, j) writes cols[j+1] and reads cols[j],
                // written by (i, j-1), which completed before it (a
                // dependence edge); a tile at block distance ≥ 2 touches
                // neither. The zero column cols[0] is never written.
                let cols = unsafe { cols_shared.slice_mut() };
                let x0 = i * xblock;
                let x1 = ((i + 1) * xblock).min(la);
                let y0 = j * yblock + 1;
                let y1 = ((j + 1) * yblock).min(lb);
                // Split the aliasing manually: left = cols[j], right = cols[j+1].
                let (head, tail) = cols.split_at_mut(j + 1);
                let left = &head[j];
                let right = &mut tail[0];
                // SAFETY: scratch slot j is used by the tiles of block
                // column j only, one after the other (the (i-1, j)
                // dependence); a tile at block distance ≥ 2 uses another.
                let sc = unsafe { scratch_shared.slice_mut().get_mut(j) };
                run.run(row, x0, x1, y0, y1, left, right, sc);
            });
        }
        self.row[lb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::random_sequence;
    use tempora_stencil::reference;

    fn lcs_tiled(a: &[u8], b: &[u8], xb: usize, yb: usize, s: usize, t: bool, pool: &Pool) -> i32 {
        LcsRect::new(a.len(), b.len(), xb, yb, s, t, Select::Auto).run(a, b, pool)
    }

    #[test]
    fn tiled_lcs_matches_reference() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for &(la, lb) in &[(40usize, 120usize), (64, 64), (100, 333), (31, 57)] {
                let a = random_sequence(la, 4, la as u64);
                let b = random_sequence(lb, 4, lb as u64 + 7);
                let gold = reference::lcs_len(&a, &b);
                for &(xb, yb) in &[(16usize, 32usize), (24, 40), (64, 128)] {
                    for temporal in [false, true] {
                        let got = lcs_tiled(&a, &b, xb, yb, 1, temporal, &pool);
                        assert_eq!(
                            got, gold,
                            "threads={threads} la={la} lb={lb} xb={xb} yb={yb} temporal={temporal}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_identical_and_allocation_free() {
        let pool = Pool::new(2);
        let a = random_sequence(100, 4, 1);
        let b = random_sequence(140, 4, 2);
        let gold = reference::lcs_len(&a, &b);
        let mut w = LcsRect::new(100, 140, 24, 40, 1, true, Select::Auto);
        let expect = if tempora_simd::arch::avx2_available() {
            Engine::Avx2
        } else {
            Engine::Portable
        };
        assert_eq!(w.engine(), Some(expect));
        assert_eq!(w.run(&a, &b, &pool), gold);
        let clean = tempora_grid::runs_allocation_free(|| {
            assert_eq!(w.run(&a, &b, &pool), gold);
        });
        assert!(clean, "reused run allocated in every observed window");
    }

    #[test]
    fn stride_two_and_binary_alphabet() {
        let pool = Pool::new(2);
        let a = random_sequence(77, 2, 1);
        let b = random_sequence(201, 2, 2);
        let gold = reference::lcs_len(&a, &b);
        for s in 1..=2 {
            assert_eq!(lcs_tiled(&a, &b, 32, 64, s, true, &pool), gold, "s={s}");
        }
    }

    #[test]
    fn engine_report_is_honest_and_forced_engines_agree() {
        let pool = Pool::new(2);
        let a = random_sequence(96, 4, 21);
        let b = random_sequence(130, 4, 22);
        let gold = reference::lcs_len(&a, &b);
        // Scalar mode never dispatches.
        let mut w = LcsRect::new(96, 130, 24, 40, 1, false, Select::Auto);
        assert_eq!(w.engine(), None);
        assert_eq!(w.run(&a, &b, &pool), gold);
        // Forced portable reports portable.
        let mut w = LcsRect::new(96, 130, 24, 40, 1, true, Select::Portable);
        assert_eq!(w.engine(), Some(Engine::Portable));
        assert_eq!(w.run(&a, &b, &pool), gold);
        // Degenerate geometries resolve portable even under Auto: a
        // column block below VL·s + 1, and an xblock below VL (LCS is
        // integer code, one and the same in every engine's context —
        // unlike the grid kernels, whose scalar steps resolve by
        // capability because of `mul_add`).
        let mut w = LcsRect::new(96, 130, 24, 6, 1, true, Select::Auto);
        assert_eq!(w.engine(), Some(Engine::Portable));
        assert_eq!(w.run(&a, &b, &pool), gold);
        let mut w = LcsRect::new(96, 130, 4, 40, 1, true, Select::Auto);
        assert_eq!(w.engine(), Some(Engine::Portable));
        assert_eq!(w.run(&a, &b, &pool), gold);
        // Forced AVX2 on a healthy geometry agrees with forced portable.
        if tempora_simd::arch::avx2_available() {
            let mut w = LcsRect::new(96, 130, 24, 40, 1, true, Select::Avx2);
            assert_eq!(w.engine(), Some(Engine::Avx2));
            assert_eq!(w.run(&a, &b, &pool), gold);
        }
    }

    #[test]
    fn pipelined_wavefront_agrees_at_every_thread_count_and_fault_in_is_safe() {
        let a = random_sequence(100, 4, 1);
        let b = random_sequence(140, 4, 2);
        let gold = reference::lcs_len(&a, &b);
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for temporal in [false, true] {
                let mut w = LcsRect::new(100, 140, 24, 40, 1, temporal, Select::Auto);
                assert_eq!(w.run(&a, &b, &pool), gold, "threads={threads}");
                assert_eq!(w.run(&a, &b, &pool), gold, "reuse threads={threads}");
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let pool = Pool::new(2);
        assert_eq!(lcs_tiled(b"", b"ABC", 8, 8, 1, true, &pool), 0);
        assert_eq!(lcs_tiled(b"ABC", b"", 8, 8, 1, true, &pool), 0);
        assert_eq!(lcs_tiled(b"A", b"A", 8, 8, 1, true, &pool), 1);
        assert_eq!(lcs_tiled(b"GATTACA", b"TACCAGA", 2, 3, 1, false, &pool), 4);
        // Temporal scratch exists only where a tile hosts the vector
        // schedule: none for scalar rows, bands below VL rows, segments
        // of at most VL·s columns, or a stride whose VL·s wraps.
        let slots = |xb, yb, s, t| {
            LcsRect::new(100, 140, xb, yb, s, t, Select::Auto)
                .scratch
                .len()
        };
        assert_eq!(slots(24, 40, 1, true), 4);
        assert_eq!(slots(24, 40, 1, false), 0);
        assert_eq!(slots(4, 40, 1, true), 0);
        assert_eq!(slots(24, 16, 2, true), 0);
        assert_eq!(slots(24, 40, usize::MAX / 4 + 2, true), 0);
    }
}
