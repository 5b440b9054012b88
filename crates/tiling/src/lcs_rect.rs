//! Rectangle tiling for the LCS dynamic program (paper §3.4: "LCS allows
//! the rectangle tiling in the iteration space"), with pipelined
//! wavefront parallelism.
//!
//! # The vector wave: one sweep per band
//!
//! The temporal method runs LCS the way [`crate::Sweeps`] runs the grid
//! kinds, on the same 1-D sweep Heat-1D and GS-1D run: each band of `vl`
//! DP rows is **one** band sweep
//! (`tempora_core::lcs::sweep`: masked front, steady state, masked
//! back), cut at the block columns of `yblock` and resumed across each
//! cut — the pipelined temporal blocking of Wittmann, Hager and Wellein
//! (PAPERS.md). [`Pool::waves`] runs the `la / vl` bands × `n_j` block
//! columns; task `(t, J)` runs band `t`'s anchors in block column `J` —
//! the masked front in `J = 0`, the masked back in the last column — and
//! hands the paused ring (`s + 1` vectors) and the last output vector to
//! `(t, J+1)` through band `t`'s scratch slot, so no rectangle pays ends
//! of its own. The `la mod vl` rows
//! left over run afterwards as whole-row scalar steps. `xblock` does not
//! cut this schedule: it is validated and echoed only.
//!
//! ## Why it is race-free
//!
//! Every block column is wider than `vl·s` ([`bands_fit`]: otherwise the
//! shape runs the scalar wave below), and [`Pool::waves`] runs `(t, J)`
//! after `(t, J-1)`, `(t-1, J)` and `(t-1, J+1)`, beside no task nearer
//! than one band and two block columns.
//!
//! * **Reads.** Task `(t, J)` reads level `t·vl` of the row from its first
//!   anchor to `vl·s` columns past its last one — into block `J+1`, never
//!   beyond — where `(t-1, J+1)`, a wave edge, has finished writing it
//!   and `(t, J+1)`, its successor, has not started.
//! * **Writes.** It writes the row only at its own anchors (and, in the
//!   last column, at the masked back's columns `(lb - vl·s, lb]`, which lie
//!   in that column because it is wider than `vl·s`). The level it
//!   overwrites was read by `(t, J-1)` and by itself, both done.
//! * **Concurrency.** A task two block columns away touches blocks
//!   `J ± 2` and their successors: disjoint from `J` and `J + 1`.
//! * **Scratch.** Band `t` uses slot `t % slots`, `slots = min(bands,
//!   n_j)`, for all its parts, in order. Band `t` cannot start before band
//!   `t - n_j + 1` has drained (the chain `(t, 0) ← (t-1, 1) ← … ←
//!   (t-n_j+1, n_j-1)`), so the band whose slot it takes over is long
//!   finished, as in [`crate::sweeps`].
//!
//! `B`'s lane layout (`tempora_core::lcs::BLanes`) is built once per run,
//! before the wave, and only read inside it.
//!
//! # The scalar wave: rectangles
//!
//! `Method::Scalar` plans, and shapes no band sweep fits (fewer than `vl`
//! rows, a block column of at most `vl·s` columns), run scalar rows over
//! `xblock × yblock` rectangles. Tile `(I, J)` needs tile `(I-1, J)` (the
//! row segment at its top edge, carried by the shared rolling row) and
//! tile `(I, J-1)` (its west column, carried by a per-`J` column buffer —
//! the paper's `lcsA`/`lcsB` wavefront arrays); the same wave runs it
//! after both, so tiles that may run side by side touch disjoint row
//! segments and distinct column buffers.
//!
//! [`LcsRect`] is the reusable workspace form (row, `B` layout, column
//! buffers or band scratch allocated once, reused by every
//! [`LcsRect::run`] call — the wavefront runs allocation-free). Both block
//! extents are clamped to the sequence lengths, so no extent asks for
//! more memory than the table has columns. The workspace is built for
//! the [`Engine`] its caller resolved once ([`tempora_core::lcs_avx2::resolve`]) and
//! reports what runs: sixteen-lane bands on [`Engine::Avx512`], eight on
//! the others, and a degenerate shape honestly portable.

use tempora_core::engine::Engine;
use tempora_core::lcs::{self, bands_fit, scalar_row_step, scalar_row_step_seg, BLanes};
use tempora_parallel::{Pool, SyncSlice};

/// The schedule a workspace runs.
enum Wave {
    /// Band sweeps of `lcs::vl(engine)` rows, each resumed across the
    /// block columns.
    Bands {
        engine: Engine,
        /// `B`'s lane layout, filled per run.
        bl: BLanes,
        /// `slots[t % slots.len()]`: what the parts of band `t` hand each
        /// other.
        slots: Vec<lcs::Scratch>,
    },
    /// Scalar rows over `xblock × yblock` rectangles.
    Rows {
        /// Column buffers: `cols[j][h] = lcs[x0+h][y_j1]` for the current
        /// tile row; `cols[0]` is the (all-zero) table west edge, never
        /// written.
        cols: Vec<Vec<i32>>,
    },
}

/// Reusable rectangle-tiling workspace for the LCS DP: the rolling row and
/// the wave's buffers are allocated once in [`LcsRect::new`] and reused
/// (re-zeroed or refilled, not reallocated) by every [`LcsRect::run`]
/// call.
pub struct LcsRect {
    xblock: usize,
    yblock: usize,
    s: usize,
    engine: Option<Engine>,
    la: usize,
    lb: usize,
    row: Vec<i32>,
    wave: Wave,
}

impl LcsRect {
    /// Build a workspace for sequences of lengths `la × lb` with
    /// `xblock × yblock` blocks (each clamped to its sequence's length)
    /// and temporal stride `s`: band sweeps on `engine` ("our"), or scalar
    /// rows for `None` ("scalar"); both are exact. The caller resolves the
    /// engine once ([`tempora_core::lcs_avx2::resolve`], as `tempora_plan` does; a test
    /// or an ablation may force any engine the CPU has, at any shape).
    /// Where `engine`'s bands do not fit every block column
    /// ([`bands_fit`]) the run is the scalar wave, and
    /// [`LcsRect::engine`] honestly reports it portable. Band scratch and
    /// `B`'s layout exist only where bands run, so a stride no row
    /// reaches allocates none.
    ///
    /// # Panics
    /// Panics when `s`, `xblock` or `yblock` is zero (`tempora_plan`
    /// validates these ahead of time and returns a `PlanError` instead);
    /// the first [`LcsRect::run`] panics when the CPU cannot run `engine`.
    pub fn new(
        la: usize,
        lb: usize,
        xblock: usize,
        yblock: usize,
        s: usize,
        engine: Option<Engine>,
    ) -> Self {
        assert!(s >= 1 && xblock >= 1 && yblock >= 1);
        let (xblock, yblock) = (xblock.min(la.max(1)), yblock.min(lb.max(1)));
        let bands = engine.filter(|&e| bands_fit(lcs::vl(e), la, lb, yblock, s));
        let engine = engine.map(|_| bands.unwrap_or(Engine::Portable));
        let wave = if let Some(engine) = bands {
            Wave::Bands {
                engine,
                bl: BLanes::new(lb, s),
                slots: (0..(la / lcs::vl(engine)).min(lb.div_ceil(yblock)))
                    .map(|_| lcs::Scratch::new(engine, s))
                    .collect(),
            }
        } else {
            let n_j = lb.div_ceil(yblock);
            Wave::Rows {
                cols: (0..n_j + 1).map(|_| vec![0i32; xblock + 1]).collect(),
            }
        };
        LcsRect {
            xblock,
            yblock,
            s,
            engine,
            la,
            lb,
            row: vec![0i32; lb + 1],
            wave,
        }
    }

    /// The engine the temporal wavefront resolved to (`None` for scalar
    /// rows).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// The wave [`LcsRect::run`] runs, as `(tasks, rows, columns)`: its
    /// task count, and the DP rows and columns of one task — `vl`-row
    /// bands × `yblock` columns for the band sweeps, `xblock × yblock`
    /// rectangles for the scalar rows (the extents clamped).
    pub fn wave(&self) -> (usize, usize, usize) {
        let n_j = self.lb.div_ceil(self.yblock);
        match self.wave {
            Wave::Bands { engine, .. } => {
                let vl = lcs::vl(engine);
                (self.la / vl * n_j, vl, self.yblock)
            }
            Wave::Rows { .. } => (
                self.la.div_ceil(self.xblock) * n_j,
                self.xblock,
                self.yblock,
            ),
        }
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
        let (la, lb, s, yblock) = (self.la, self.lb, self.s, self.yblock);
        if la == 0 || lb == 0 {
            return 0;
        }
        let n_j = lb.div_ceil(yblock);
        self.row.fill(0);
        let row_shared = SyncSlice::new(&mut self.row);
        match &mut self.wave {
            Wave::Bands { engine, bl, slots } => {
                let (engine, vl) = (*engine, lcs::vl(*engine));
                let (n_t, y_max) = (la / vl, lb - vl * s);
                bl.fill(b);
                let bl = &*bl;
                let n_slots = slots.len();
                let slots_shared = SyncSlice::new(slots);
                pool.waves(n_t, n_j, |t, j| {
                    // SAFETY: the hazard argument of the module docs. Task
                    // (t, j) writes the row only at its anchors (and the
                    // masked back's columns, inside the last block column)
                    // and reads it up to `vl·s` columns into block j+1,
                    // where (t-1, j+1) has finished and (t, j+1) has not
                    // started; tasks that may run beside it are at band
                    // distance ≥ 1 and block distance ≥ 2, so their
                    // columns are disjoint from these.
                    let row = unsafe { row_shared.slice_mut() };
                    // SAFETY: band t's parts run one after the other and
                    // band t cannot start before band t - n_j + 1 drained,
                    // so the previous user of slot t % n_slots (band
                    // t - n_slots, `n_slots ≤ n_j`) has finished and no
                    // task in flight shares it.
                    let sc = unsafe { &mut slots_shared.slice_mut()[t % n_slots] };
                    let ys = j * yblock + 1..=((j + 1) * yblock).min(y_max);
                    let a_band = &a[t * vl..(t + 1) * vl];
                    lcs::sweep(engine, row, a_band, b, bl, s, ys, sc);
                });
                for &ca in &a[n_t * vl..] {
                    scalar_row_step(&mut self.row, ca, b);
                }
            }
            Wave::Rows { cols } => {
                for col in cols.iter_mut() {
                    col.fill(0);
                }
                let xblock = self.xblock;
                let cols_shared = SyncSlice::new(cols);
                pool.waves(la.div_ceil(xblock), n_j, |i, j| {
                    // SAFETY: tile (i, j) writes row[y0..=y1] only, after
                    // (i-1, j) wrote it; tiles that may run beside it are
                    // at band distance ≥ 1 and block distance ≥ 2, so
                    // their segments are disjoint from it.
                    let row = unsafe { row_shared.slice_mut() };
                    // SAFETY: tile (i, j) writes cols[j+1] and reads
                    // cols[j], written by (i, j-1), which completed before
                    // it (a dependence edge); a tile at block distance ≥ 2
                    // touches neither. The zero column cols[0] is never
                    // written.
                    let cols = unsafe { cols_shared.slice_mut() };
                    let (x0, x1) = (i * xblock, ((i + 1) * xblock).min(la));
                    let (y0, y1) = (j * yblock + 1, ((j + 1) * yblock).min(lb));
                    let (head, tail) = cols.split_at_mut(j + 1);
                    let (left, right) = (&head[j], &mut tail[0]);
                    right[0] = row[y1];
                    for h in 0..x1 - x0 {
                        scalar_row_step_seg(row, a[x0 + h], b, y0, y1, left[h + 1], left[h]);
                        right[h + 1] = row[y1];
                    }
                });
            }
        }
        self.row[lb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::engine::Select;
    use tempora_core::lcs_avx2;
    use tempora_grid::random_sequence;
    use tempora_simd::arch::{avx2_available, avx512_available};
    use tempora_stencil::reference;

    /// A workspace for `sel` resolved as `tempora_plan` resolves it, or
    /// scalar rows when not `temporal`.
    fn rect(la: usize, lb: usize, xb: usize, yb: usize, s: usize, t: bool, sel: Select) -> LcsRect {
        let engine = t.then(|| lcs_avx2::resolve(sel, la, lb, yb, s));
        LcsRect::new(la, lb, xb, yb, s, engine)
    }

    fn lcs_tiled(a: &[u8], b: &[u8], xb: usize, yb: usize, s: usize, t: bool, pool: &Pool) -> i32 {
        rect(a.len(), b.len(), xb, yb, s, t, Select::Auto).run(a, b, pool)
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
        // Eight lanes at 140 columns; sixteen, where the CPU has them, at
        // 1100 (`Auto` widens from 1024).
        for (lb, wide) in [(140, false), (1100, true)] {
            let a = random_sequence(96, 4, 1);
            let b = random_sequence(lb, 4, 2);
            let gold = reference::lcs_len(&a, &b);
            let mut w = rect(96, lb, 24, 40, 1, true, Select::Auto);
            let expect = match (avx2_available(), wide && avx512_available()) {
                (_, true) => Engine::Avx512,
                (true, false) => Engine::Avx2,
                (false, false) => Engine::Portable,
            };
            assert_eq!(w.engine(), Some(expect), "lb={lb}");
            assert_eq!(w.run(&a, &b, &pool), gold);
            let clean = tempora_grid::runs_allocation_free(|| {
                assert_eq!(w.run(&a, &b, &pool), gold);
            });
            assert!(
                clean,
                "reused run allocated in every observed window (lb={lb})"
            );
        }
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
        let mut w = rect(96, 130, 24, 40, 1, false, Select::Auto);
        assert_eq!(w.engine(), None);
        assert_eq!(w.run(&a, &b, &pool), gold);
        // Forced portable reports portable.
        let mut w = rect(96, 130, 24, 40, 1, true, Select::Portable);
        assert_eq!(w.engine(), Some(Engine::Portable));
        assert_eq!(w.run(&a, &b, &pool), gold);
        // Degenerate geometries resolve portable even under Auto: a
        // column block below VL·s + 1, and fewer rows than a band (LCS is
        // integer code, one and the same in every engine's context —
        // unlike the grid kernels, whose scalar steps resolve by
        // capability because of `mul_add`). `xblock` does not cut the
        // band sweeps: a narrow one still runs them.
        let mut w = rect(96, 130, 24, 6, 1, true, Select::Auto);
        assert_eq!(w.engine(), Some(Engine::Portable));
        assert_eq!(w.run(&a, &b, &pool), gold);
        let mut w = rect(7, 130, 24, 40, 1, true, Select::Auto);
        assert_eq!(w.engine(), Some(Engine::Portable));
        assert_eq!(w.run(&a[..7], &b, &pool), reference::lcs_len(&a[..7], &b));
        let mut w = rect(96, 130, 4, 40, 1, true, Select::Auto);
        let narrow = Select::Auto.resolve(true);
        assert_eq!(w.engine(), Some(narrow));
        assert_eq!(w.wave(), (12 * 4, 8, 40));
        assert_eq!(w.run(&a, &b, &pool), gold);
        // Forced AVX2 on a healthy geometry agrees with forced portable,
        // and means eight lanes however wide the row.
        if avx2_available() {
            let mut w = rect(96, 130, 24, 40, 1, true, Select::Avx2);
            assert_eq!(w.engine(), Some(Engine::Avx2));
            assert_eq!(w.run(&a, &b, &pool), gold);
            let w = rect(96, 4096, 24, 1024, 1, true, Select::Avx2);
            assert_eq!(w.engine(), Some(Engine::Avx2));
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
                let mut w = rect(100, 140, 24, 40, 1, temporal, Select::Auto);
                assert_eq!(w.run(&a, &b, &pool), gold, "threads={threads}");
                assert_eq!(w.run(&a, &b, &pool), gold, "reuse threads={threads}");
            }
        }
    }

    /// The equivalence table: every engine this host runs, forced at the
    /// workspace whatever `Auto` would pick, over rows `la` around both
    /// lane counts, `B` around both sweeps' reach and the sixteen-lane
    /// crossover, block columns one past and one short of the reach,
    /// twice it and ragged, strides 1 to 3, at 1, 2, 4 and 8 threads —
    /// bitwise ≡ `reference::lcs_len`, reporting the engine that ran.
    #[test]
    fn band_wave_table_matches_reference() {
        let mut engines = vec![Engine::Portable];
        engines.extend(avx2_available().then_some(Engine::Avx2));
        engines.extend(avx512_available().then_some(Engine::Avx512));
        let pools: Vec<Pool> = [1, 2, 4, 8].map(Pool::new).into();
        for s in 1..=3 {
            for la in [15usize, 16, 17, 40, 257] {
                let a = random_sequence(la, 4, (la * 7 + s) as u64);
                for lb in [
                    8 * s - 1,
                    8 * s,
                    8 * s + 1,
                    16 * s - 1,
                    16 * s,
                    16 * s + 1,
                    1023,
                    1024,
                    1025,
                ] {
                    let b = random_sequence(lb, 4, (lb * 3 + s) as u64);
                    let gold = reference::lcs_len(&a, &b);
                    for &engine in &engines {
                        let reach = lcs::vl(engine) * s;
                        for yb in [lb, reach + 1, reach - 1, 2 * reach, 3 * reach + 7] {
                            let mut w = LcsRect::new(la, lb, 64, yb, s, Some(engine));
                            let fits = bands_fit(lcs::vl(engine), la, lb, yb, s);
                            let ran = if fits { engine } else { Engine::Portable };
                            assert_eq!(w.engine(), Some(ran), "{engine:?} la={la} lb={lb} yb={yb}");
                            for pool in &pools {
                                assert_eq!(
                                    w.run(&a, &b, pool),
                                    gold,
                                    "{engine:?} la={la} lb={lb} yb={yb} s={s} x{}",
                                    pool.threads()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_blocks_are_clamped() {
        // An `xblock` or `yblock` beyond the table allocates no more than
        // the table has: both clamp to the sequence lengths.
        let pool = Pool::new(2);
        let a = random_sequence(100, 4, 3);
        let b = random_sequence(100, 4, 4);
        let gold = reference::lcs_len(&a, &b);
        for (xb, yb) in [(1 << 32, 50), (usize::MAX, 50), (50, usize::MAX)] {
            for temporal in [false, true] {
                let mut w = rect(100, 100, xb, yb, 1, temporal, Select::Auto);
                assert!(w.xblock <= 100 && w.yblock <= 100);
                assert_eq!(w.run(&a, &b, &pool), gold, "xb={xb} yb={yb}");
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
        // Band scratch exists only where bands run: none for scalar rows,
        // fewer rows than a band, block columns of at most VL·s columns,
        // or a stride whose VL·s wraps; one slot per band in flight.
        let slots = |xb, yb, s, t| match rect(100, 140, xb, yb, s, t, Select::Auto).wave {
            Wave::Bands { slots, .. } => slots.len(),
            Wave::Rows { .. } => 0,
        };
        assert_eq!(slots(24, 40, 1, true), 4);
        assert_eq!(slots(24, 140, 1, true), 1);
        assert_eq!(slots(24, 10, 1, true), 12);
        assert_eq!(slots(24, 40, 1, false), 0);
        assert_eq!(slots(4, 40, 1, true), 4);
        assert_eq!(slots(24, 16, 2, true), 0);
        assert_eq!(slots(24, 40, usize::MAX / 4 + 2, true), 0);
    }
}
