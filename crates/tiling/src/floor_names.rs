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
        use crate::sweeps::tests::{run, workspace, Kind};
        use crate::{Mode, Sweeps};
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
            // sweeps (VL·s = 8 here), 1 ..= n for scalar ones.
            let kern = JacobiKern1d(Heat1dCoeffs::classic(0.25));
            for &(n, block) in &[(100usize, 17usize), (64, 64), (10, 3), (100, 5), (9, 1)] {
                let g: Grid1<f64> = JacobiKern1d::grid([n, 1, 1], 1);
                for (mode, anchors, widest) in [
                    (Mode::Temporal(2), n + 1 - 8, 8),
                    (Mode::Scalar, n, 2),
                    (Mode::Auto, n, 2),
                ] {
                    let w = workspace(&kern, &g, 8, block, mode, Select::Auto);
                    assert_eq!(w.chunk(), block.max(widest), "{mode:?} n={n}");
                    assert!((w.chunks() - 1) * w.chunk() < anchors, "{mode:?} n={n}");
                    assert!(anchors <= w.chunks() * w.chunk(), "{mode:?} n={n}");
                }
                assert_eq!(
                    workspace(&kern, &g, 11, block, Mode::Temporal(2), Select::Auto).sweeps(),
                    2 + 3
                );
            }
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
                    let g: Grid1<f64> = JacobiKern1d::grid([n, 1, 1], n as u64);
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
            let g0: Grid1<f64> = JacobiKern1d::grid([300, 1, 1], 17);
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
            let g: Grid1<f64> = JacobiKern1d::grid([448, 1, 1], 3);
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
            let small: Grid1<f64> = JacobiKern1d::grid([27, 1, 1], 4);
            assert_eq!(
                engine(&small, 8, 64, Mode::Temporal(7), Select::Auto),
                Some(best())
            );
        }

        #[test]
        fn ghost_2d_star_and_box_match_reference() {
            let pool = Pool::new(2);
            let c = Heat2dCoeffs::classic(0.12);
            let g: Grid2<f64> = JacobiKern2d::grid([60, 13, 1], 9);
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
            let g: Grid2<i32> = LifeKern2d::grid([70, 20, 1], 4);
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

        /// Results of two identical workspaces, the second one faulted in.
        fn plain_and_faulted<K: KernelSpace>(
            mk: impl Fn() -> Sweeps<K>,
            g: &K::Grid,
            pool: &Pool,
        ) -> (K::Grid, K::Grid) {
            let mut faulted = mk();
            faulted.fault_in(pool);
            (run(mk(), g, pool).0, run(faulted, g, pool).0)
        }

        #[test]
        fn fault_in_preserves_results_bitwise() {
            let pool = Pool::new(4);
            let k1 = JacobiKern1d(Heat1dCoeffs::classic(0.25));
            let g1: Grid1<f64> = JacobiKern1d::grid([300, 1, 1], 17);
            let k2 = JacobiKern2d(Heat2dCoeffs::classic(0.12));
            let g2: Grid2<f64> = JacobiKern2d::grid([60, 13, 1], 9);
            let k3 = JacobiKern3d(Heat3dCoeffs::classic(0.1));
            let g3: Grid3<f64> = JacobiKern3d::grid([40, 6, 7], 11);
            for (mode1, mode) in [
                (Mode::Scalar, Mode::Scalar),
                (Mode::Auto, Mode::Auto),
                (Mode::Temporal(7), Mode::Temporal(2)),
            ] {
                let mk = || workspace(&k1, &g1, 8, 64, mode1, Select::Auto);
                let (a, b) = plain_and_faulted(mk, &g1, &pool);
                assert!(a.interior_eq(&b), "1d mode={mode1:?}");
                let mk = || workspace(&k2, &g2, 8, 16, mode, Select::Auto);
                let (a, b) = plain_and_faulted(mk, &g2, &pool);
                assert!(a.interior_eq(&b), "2d mode={mode:?}");
                let mk = || workspace(&k3, &g3, 9, 12, mode, Select::Auto);
                let (a, b) = plain_and_faulted(mk, &g3, &pool);
                assert!(a.interior_eq(&b), "3d mode={mode:?}");
            }
        }

        #[test]
        fn ghost_3d_matches_reference() {
            let pool = Pool::new(2);
            let c = Heat3dCoeffs::classic(0.1);
            let g: Grid3<f64> = JacobiKern3d::grid([40, 6, 7], 11);
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
        use crate::sweeps::tests::{run, workspace, Kind};
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
                    let g: Grid1<f64> = GsKern1d::grid([n, 1, 1], (n + threads) as u64);
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
            let g: Grid1<f64> = GsKern1d::grid([500, 1, 1], 9);
            let engine =
                |mode, sel| run(workspace(&kern, &g, 8, 64, mode, sel), &g, &pool).1;
            assert_eq!(engine(Mode::Scalar, Select::Auto), None);
            assert_eq!(
                engine(Mode::Temporal(2), Select::Portable),
                Some(Engine::Portable)
            );
            if tempora_simd::arch::avx2_available() {
                assert_eq!(engine(Mode::Temporal(2), Select::Auto), Some(Engine::Avx2));
                // A grid below VL·s = 28 cells has no vector schedule: its
                // scalar steps run in, and report, the AVX2 context.
                let small: Grid1<f64> = GsKern1d::grid([24, 1, 1], 2);
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
                let g: Grid2<f64> = GsKern2d::grid([120, 9, 1], 21);
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
            let g: Grid2<f64> = GsKern2d::grid([120, 9, 1], 21);
            let gold = reference::gs2d(&g, c, 8);
            for threads in [1usize, 2, 4, 8] {
                let pool = Pool::new(threads);
                for mode in [Mode::Scalar, Mode::Temporal(2)] {
                    let mk = || workspace(&kern, &g, 8, 48, mode, Select::Auto);
                    // fault_in on one side must not perturb results either.
                    let mut wa = mk();
                    wa.fault_in(&pool);
                    for ours in [run(wa, &g, &pool).0, run(mk(), &g, &pool).0] {
                        assert!(
                            ours.interior_eq(&gold),
                            "threads={threads} mode={mode:?} {:?}",
                            ours.first_diff(&gold)
                        );
                    }
                }
            }
        }

        #[test]
        fn gs3d_parallel_matches_reference() {
            let c = Gs3dCoeffs::classic(0.11);
            let pool = Pool::new(2);
            let g: Grid3<f64> = GsKern3d::grid([80, 5, 6], 13);
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
