//! Rectangle tiling for the LCS dynamic program (paper §3.4: "LCS allows
//! the rectangle tiling in the iteration space"), with pipelined
//! wavefront parallelism.
//!
//! The DP table is cut into `xblock × yblock` rectangles. Tile `(I, J)`
//! needs tile `(I-1, J)` (the row segment at its top edge, carried by the
//! shared rolling row) and tile `(I, J-1)` (its west column, carried by a
//! per-`J` column buffer — the paper's `lcsA`/`lcsB` wavefront arrays).
//! [`tempora_parallel::Pool::waves`] with waves `w = 2I + J` satisfies
//! both dependences, and same-wave tiles touch disjoint row segments and
//! distinct column buffers.
//!
//! [`LcsRect`] is the reusable workspace form (row, column buffers and
//! per-block temporal scratch allocated once, reused by every
//! [`LcsRect::run`] call — the wavefront runs allocation-free). The
//! temporal in-tile kernel dispatches like the grid tilings: the
//! workspace resolves its [`Select`] once against the AVX2 LCS engine's
//! shape predicate
//! ([`tempora_core::lcs_avx2::rect_has_vector_tiles`] — every block
//! column must host the `vl = 8` vector schedule) and reports the
//! resolved [`Engine`]; degenerate geometries honestly stay portable.

use tempora_core::engine::{Engine, Select};
use tempora_core::lcs::{scalar_row_step_seg, tile_seg, ScratchLcs, VL};
use tempora_core::lcs_avx2;
use tempora_parallel::{Pool, SyncSlice};

/// Per-tile executor parameters.
struct TileRun<'a> {
    a: &'a [u8],
    b: &'a [u8],
    s: usize,
    /// The engine of the temporal in-tile kernel; `None` runs scalar rows.
    engine: Option<Engine>,
}

impl TileRun<'_> {
    /// Advance the row segment `[y0, y1]` from level `x0` to `x1`
    /// (exclusive upper), reading `left[h] = lcs[x0+h][y0-1]` and filling
    /// `right[h] = lcs[x0+h][y1]` for `h ∈ 0..=x1-x0`.
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
        sc: &mut ScratchLcs<VL>,
    ) {
        let height = x1 - x0;
        right[0] = row[y1];
        let mut done = 0;
        if let Some(engine) = self.engine {
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
    /// portable.
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
        // Per-block-column scratch: same-wave tiles differ in j by ≥ 2
        // and tiles sharing j are serialized by the (I-1, J) dependence,
        // so slot j is never touched concurrently. (Allocated for the
        // scalar mode too — it is tiny and keeps the executor uniform.)
        let scratch: Vec<ScratchLcs<VL>> = (0..n_j + 1).map(|_| ScratchLcs::new(s)).collect();
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
            scratch,
        }
    }

    /// The engine the temporal wavefront resolved to (`None` for scalar
    /// rows).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// First-touch the per-column buffers and re-allocate the
    /// per-block-column scratch through `pool` (best-effort NUMA spread
    /// — the wavefront schedule has no static tile owner). The rolling
    /// row, shared by all tiles, stays caller-touched. Results are
    /// unchanged whether or not this runs.
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        let s = self.s;
        let n_slots = self.cols.len();
        let cols_shared = SyncSlice::new(&mut self.cols);
        let scratch_shared = SyncSlice::new(&mut self.scratch);
        pool.for_each_owned(n_slots, |j| {
            // SAFETY: column slot j is written only by its owning worker.
            let col = unsafe { &mut cols_shared.slice_mut()[j] };
            crate::touch_pages(col);
            // SAFETY: scratch slot j is written only by its owning worker.
            let sc = unsafe { &mut scratch_shared.slice_mut()[j] };
            *sc = ScratchLcs::new(s);
        });
        crate::touch_pages(&mut self.row);
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
            engine: self.engine,
        };
        let (xblock, yblock) = (self.xblock, self.yblock);
        {
            let row_shared = SyncSlice::new(&mut self.row);
            let cols_shared = SyncSlice::new(&mut self.cols);
            let scratch_shared = SyncSlice::new(&mut self.scratch);
            pool.waves(n_i, n_j, |i, j| {
                // SAFETY: tile (i, j) writes row[y0..=y1] only — disjoint
                // segments across same-wave tiles, which differ in j by ≥ 2.
                let row = unsafe { row_shared.slice_mut() };
                // SAFETY: tile (i, j) writes cols[j+1] and reads cols[j],
                // written by (i, j-1) on an earlier wave (dependence edge).
                // The zero column cols[0] is never written.
                let cols = unsafe { cols_shared.slice_mut() };
                let x0 = i * xblock;
                let x1 = ((i + 1) * xblock).min(la);
                let y0 = j * yblock + 1;
                let y1 = ((j + 1) * yblock).min(lb);
                // Split the aliasing manually: left = cols[j], right = cols[j+1].
                let (head, tail) = cols.split_at_mut(j + 1);
                let left = &head[j];
                let right = &mut tail[0];
                // SAFETY: scratch slot j is owned by the unique in-flight
                // tile of block column j.
                let sc = unsafe { &mut scratch_shared.slice_mut()[j] };
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
                w.fault_in(&pool);
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
    }
}
