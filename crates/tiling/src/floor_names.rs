// The tests of the two workspaces `sweeps` replaced (ghost-zone Jacobi
// tiles and skewed Gauss-Seidel bands), under the module paths the repo's
// test floor keys them by, each driving `Sweeps` through the geometry its
// name describes; `sweeps::tests` runs the generated table. What changed with
// the workspace is stated where it did: a block below `VL·s` is widened,
// runs the vector schedule and reports the engine that runs (it used to
// force the scalar fallback and report portable); a grid below `VL·s`
// slabs or a run below `VL` steps is degenerate — scalar steps only — and
// reports the engine whose codegen context runs them.

#[cfg(test)]
mod ghost {
    mod tests {
        use crate::sweeps::tests::{run, workspace, TableGrid};
        use crate::Mode;
        use tempora_core::engine::{Engine, KernelSpace, Select};
        use tempora_core::kernels::{
            BoxKern2d, JacobiKern1d, JacobiKern2d, JacobiKern3d, LifeKern2d,
        };
        use tempora_grid::{runs_allocation_free, Grid1, Grid2, Grid3};
        use tempora_parallel::Pool;
        use tempora_simd::arch::avx2_available;
        use tempora_stencil::{
            reference, Box2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule,
        };

        /// The best engine this host has.
        fn best() -> Engine {
            if avx2_available() {
                Engine::Avx2
            } else {
                Engine::Portable
            }
        }

        #[test]
        fn extents_partition_domain() {
            // Chunks of the effective width cover the anchors of a sweep,
            // the last one possibly short: 1 ..= n + 1 - VL·s for vector
            // sweeps (VL·s = 8 or, where `auto` widens, 16 here), 1 ..= n
            // for scalar ones.
            let kern = JacobiKern1d(Heat1dCoeffs::classic(0.25));
            for &(n, block) in &[(100usize, 17usize), (64, 64), (10, 3), (100, 5), (9, 1)] {
                let g = Grid1::<f64>::seeded([n, 1, 1], 1);
                for mode in [Mode::Temporal(2), Mode::Scalar, Mode::Auto] {
                    let w = workspace(&kern, &g, 8, block, mode, Select::Auto);
                    let (anchors, widest) = match w.engine() {
                        Some(e) => (n + 1 - 2 * JacobiKern1d::vl(e), 2 * JacobiKern1d::vl(e)),
                        None => (n, 2),
                    };
                    assert_eq!(w.chunk(), block.max(widest), "{mode:?} n={n}");
                    assert!((w.chunks() - 1) * w.chunk() < anchors, "{mode:?} n={n}");
                    assert!(anchors <= w.chunks() * w.chunk(), "{mode:?} n={n}");
                }
                let w = workspace(&kern, &g, 11, block, Mode::Temporal(2), Select::Auto);
                let vl = w.engine().map_or(4, JacobiKern1d::vl);
                assert_eq!(w.sweeps(), 11 / vl + 11 % vl);
            }
            // Two threads, two four-lane sweeps: the block is an upper
            // bound, and the sweep is cut into the 18 chunks whose
            // pipeline bound, 36 / 20, reaches 90 % of two threads.
            let bc = tempora_grid::Boundary::Dirichlet(0.0);
            let dims = [1000, 1, 1];
            let w = crate::Sweeps::new(kern, dims, bc, 8, 500, 2, Mode::Temporal(2), best());
            let anchors = 1000 + 1 - 2 * JacobiKern1d::vl(best());
            assert_eq!((w.chunk(), w.chunks()), (anchors.div_ceil(18), 18));
        }

        #[test]
        fn ghost_1d_all_modes_match_reference() {
            let c = Heat1dCoeffs::classic(0.25);
            let kern = JacobiKern1d(c);
            for threads in [1usize, 2, 4] {
                let pool = Pool::new(threads);
                for &(n, block, steps) in
                    &[(200usize, 64usize, 8usize), (333, 50, 13), (64, 100, 4)]
                {
                    let g = Grid1::<f64>::seeded([n, 1, 1], n as u64);
                    let gold = reference::heat1d(&g, c, steps);
                    for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(7)] {
                        let w = workspace(&kern, &g, steps, block, mode, Select::Auto);
                        let (ours, _) = run(w, &g, &pool);
                        assert!(
                            ours.interior_eq(&gold),
                            "threads={threads} n={n} block={block} steps={steps} mode={mode:?} {:?}",
                            ours.first_diff(&gold)
                        );
                    }
                }
            }
        }

        #[test]
        fn ghost_1d_workspace_reuse_is_identical_and_allocation_free() {
            let c = Heat1dCoeffs::classic(0.25);
            let pool = Pool::new(2);
            let g0 = Grid1::<f64>::seeded([300, 1, 1], 17);
            for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(7)] {
                let mut w = workspace(&JacobiKern1d(c), &g0, 8, 64, mode, Select::Auto);
                let mut a = g0.clone();
                w.advance(&mut a, &pool);
                // Second use of the same workspace on a fresh state must
                // agree with the first bit-for-bit and allocate nothing.
                let mut b = g0.clone();
                let clean = runs_allocation_free(|| {
                    b.data_mut().copy_from_slice(g0.data());
                    w.advance(&mut b, &pool);
                });
                assert!(clean, "{mode:?}: advance allocated in every observed window");
                assert!(a.interior_eq(&b), "{mode:?}");
                assert!(a.interior_eq(&reference::heat1d(&g0, c, 8)), "{mode:?}");
            }
        }

        #[test]
        fn ghost_1d_engine_report_is_honest() {
            let kern = JacobiKern1d(Heat1dCoeffs::classic(0.25));
            let pool = Pool::new(2);
            // 48 points lie below Heat-1D's crossover at 8 steps and s = 7
            // (56 by the width formula, the narrowest line eight lanes
            // host at that stride).
            let g = Grid1::<f64>::seeded([48, 1, 1], 3);
            let engine = |g: &Grid1<f64>, steps, block, mode, sel| {
                run(workspace(&kern, g, steps, block, mode, sel), g, &pool).1
            };
            // Non-temporal modes never dispatch.
            assert_eq!(engine(&g, 8, 64, Mode::Scalar, Select::Auto), None);
            assert_eq!(engine(&g, 8, 64, Mode::Auto, Select::Auto), None);
            // Forced portable reports portable.
            assert_eq!(
                engine(&g, 8, 64, Mode::Temporal(7), Select::Portable),
                Some(Engine::Portable)
            );
            // The engine is resolved by the untiled rule: a narrow block
            // is widened to VL·s = 28 cells and runs the same vector code
            // as a wide one, so it reports the same engine.
            for block in [64, 2] {
                assert_eq!(
                    engine(&g, 8, block, Mode::Temporal(7), Select::Auto),
                    Some(best()),
                    "block={block}"
                );
            }
            // Whole-grid degenerate shapes — fewer than VL steps, or a
            // grid below VL·s cells — run scalar steps only, in the
            // resolved engine's codegen context, and report it.
            assert_eq!(
                engine(&g, 3, 64, Mode::Temporal(7), Select::Auto),
                Some(best())
            );
            let small = Grid1::<f64>::seeded([27, 1, 1], 4);
            assert_eq!(
                engine(&small, 8, 64, Mode::Temporal(7), Select::Auto),
                Some(best())
            );
        }

        #[test]
        fn ghost_2d_star_and_box_match_reference() {
            let pool = Pool::new(2);
            let c = Heat2dCoeffs::classic(0.12);
            let g = Grid2::<f64>::seeded([60, 13, 1], 9);
            let gold = reference::heat2d(&g, c, 8);
            let cb = Box2dCoeffs::smooth(0.08);
            let goldb = reference::box2d(&g, cb, 8);
            for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
                let w = workspace(&JacobiKern2d(c), &g, 8, 16, mode, Select::Auto);
                let (ours, _) = run(w, &g, &pool);
                assert!(
                    ours.interior_eq(&gold),
                    "mode={mode:?} {:?}",
                    ours.first_diff(&gold)
                );
                let w = workspace(&BoxKern2d(cb), &g, 8, 16, mode, Select::Auto);
                assert!(run(w, &g, &pool).0.interior_eq(&goldb), "box mode={mode:?}");
            }
        }

        #[test]
        fn ghost_2d_life_vl8_matches_reference() {
            let pool = Pool::new(2);
            let rule = LifeRule::b2s23();
            let kern = LifeKern2d(rule);
            let g = Grid2::<i32>::seeded([70, 20, 1], 4);
            let gold = reference::life(&g, rule, 16);
            let life =
                |block, mode, sel| run(workspace(&kern, &g, 16, block, mode, sel), &g, &pool);
            for mode in [Mode::Scalar, Mode::Temporal(2)] {
                let (ours, e) = life(24, mode, Select::Auto);
                assert!(
                    ours.interior_eq(&gold),
                    "life mode={mode:?} {:?}",
                    ours.first_diff(&gold)
                );
                // Life carries the AVX2 integer steady state: on AVX2
                // hosts this geometry resolves avx2 under Auto.
                if let Mode::Temporal(_) = mode {
                    assert_eq!(e, Some(best()));
                }
            }
            // Forced portable stays portable, bit-identically.
            let (ours, e) = life(24, Mode::Temporal(2), Select::Portable);
            assert!(ours.interior_eq(&gold));
            assert_eq!(e, Some(Engine::Portable));
            // A block below the 8-lane read-ahead (VL·s = 64 of 70 slabs)
            // is widened to it — one chunk — and runs the vector schedule.
            let (ours, e) = life(2, Mode::Temporal(8), Select::Auto);
            assert!(ours.interior_eq(&gold));
            assert_eq!(e, Some(best()));
        }

        #[test]
        fn ghost_3d_matches_reference() {
            let pool = Pool::new(2);
            let c = Heat3dCoeffs::classic(0.1);
            let g = Grid3::<f64>::seeded([40, 6, 7], 11);
            let gold = reference::heat3d(&g, c, 9); // 2 vector sweeps + 1 scalar
            for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
                let w = workspace(&JacobiKern3d(c), &g, 9, 12, mode, Select::Auto);
                let (ours, _) = run(w, &g, &pool);
                assert!(
                    ours.interior_eq(&gold),
                    "mode={mode:?} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }
}

#[cfg(test)]
mod skew {
    mod tests {
        use crate::sweeps::tests::{run, workspace, TableGrid};
        use crate::Mode;
        use tempora_core::engine::{Engine, Select};
        use tempora_core::kernels::{GsKern1d, GsKern2d, GsKern3d};
        use tempora_grid::{runs_allocation_free, Grid1, Grid2, Grid3};
        use tempora_parallel::Pool;
        use tempora_stencil::{reference, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs};

        #[test]
        fn gs1d_parallel_matches_reference_all_thread_counts() {
            let c = Gs1dCoeffs::classic(0.27);
            let kern = GsKern1d(c);
            for threads in [1usize, 2, 4] {
                let pool = Pool::new(threads);
                for &(n, block, s, steps) in &[
                    (500usize, 64usize, 2usize, 8usize),
                    (1000, 128, 7, 12),
                    (300, 120, 3, 13),
                ] {
                    let g = Grid1::<f64>::seeded([n, 1, 1], (n + threads) as u64);
                    let gold = reference::gs1d(&g, c, steps);
                    for mode in [Mode::Scalar, Mode::Temporal(s)] {
                        let w = workspace(&kern, &g, steps, block, mode, Select::Auto);
                        let (ours, _) = run(w, &g, &pool);
                        assert!(
                            ours.interior_eq(&gold),
                            "threads={threads} n={n} block={block} s={s} steps={steps} \
                             mode={mode:?} {:?}",
                            ours.first_diff(&gold)
                        );
                    }
                }
            }
        }

        #[test]
        fn gs1d_engine_report_is_honest() {
            let c = Gs1dCoeffs::classic(0.27);
            let kern = GsKern1d(c);
            let pool = Pool::new(2);
            let g = Grid1::<f64>::seeded([500, 1, 1], 9);
            let engine =
                |mode, sel| run(workspace(&kern, &g, 8, 64, mode, sel), &g, &pool).1;
            assert_eq!(engine(Mode::Scalar, Select::Auto), None);
            assert_eq!(
                engine(Mode::Temporal(2), Select::Portable),
                Some(Engine::Portable)
            );
            if tempora_simd::arch::avx2_available() {
                // 500 cells lie past GS-1D's crossover at 8 steps and
                // s = 2: 16 cells, by the width formula.
                let auto = if tempora_simd::arch::avx512_available() {
                    Engine::Avx512
                } else {
                    Engine::Avx2
                };
                assert_eq!(engine(Mode::Temporal(2), Select::Auto), Some(auto));
                // A grid below VL·s = 28 cells has no vector schedule: its
                // scalar steps run in, and report, the AVX2 context.
                let small = Grid1::<f64>::seeded([24, 1, 1], 2);
                let w = workspace(&kern, &small, 8, 36, Mode::Temporal(7), Select::Avx2);
                let (r, e) = run(w, &small, &pool);
                assert_eq!(e, Some(Engine::Avx2));
                assert!(r.interior_eq(&reference::gs1d(&small, c, 8)));
            }
        }

        #[test]
        fn gs2d_parallel_matches_reference_and_workspace_reuse_is_allocation_free() {
            let c = Gs2dCoeffs::classic(0.19);
            let kern = GsKern2d(c);
            for threads in [1usize, 2] {
                let pool = Pool::new(threads);
                let g = Grid2::<f64>::seeded([120, 9, 1], 21);
                let gold = reference::gs2d(&g, c, 8);
                for mode in [Mode::Scalar, Mode::Temporal(2)] {
                    let mut w = workspace(&kern, &g, 8, 48, mode, Select::Auto);
                    let mut ours = g.clone();
                    w.advance(&mut ours, &pool);
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                    // Reuse on a fresh state: identical and allocation-free.
                    let mut again = g.clone();
                    let clean = runs_allocation_free(|| {
                        again.data_mut().copy_from_slice(g.data());
                        w.advance(&mut again, &pool);
                    });
                    assert!(clean, "advance allocated in every observed window");
                    assert!(again.interior_eq(&gold));
                }
            }
        }

        #[test]
        fn pipelined_wavefront_matches_reference_at_every_thread_count() {
            let c = Gs2dCoeffs::classic(0.19);
            let kern = GsKern2d(c);
            let g = Grid2::<f64>::seeded([120, 9, 1], 21);
            let gold = reference::gs2d(&g, c, 8);
            for threads in [1usize, 2, 4, 8] {
                let pool = Pool::new(threads);
                for mode in [Mode::Scalar, Mode::Temporal(2)] {
                    let w = workspace(&kern, &g, 8, 48, mode, Select::Auto);
                    let (ours, _) = run(w, &g, &pool);
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }

        #[test]
        fn gs3d_parallel_matches_reference() {
            let c = Gs3dCoeffs::classic(0.11);
            let pool = Pool::new(2);
            let g = Grid3::<f64>::seeded([80, 5, 6], 13);
            let gold = reference::gs3d(&g, c, 9); // 2 vector sweeps + 1 scalar
            for mode in [Mode::Scalar, Mode::Temporal(2)] {
                let w = workspace(&GsKern3d(c), &g, 9, 24, mode, Select::Auto);
                let (ours, _) = run(w, &g, &pool);
                assert!(
                    ours.interior_eq(&gold),
                    "mode={mode:?} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }
}
