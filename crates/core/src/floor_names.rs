// Entry points of the core suites under the module paths of files that
// are gone. The repo's test floor is keyed by these names, so they stay.
//
// The slab suite's, under the six per-dimension files `slab` replaced:
// each one is the slice of the shared table in `slab::tests` that the
// test of that name used to spell out by hand (kind × engine × the aspect
// in its name), while `slab::tests` itself runs the whole product. The
// `t{2,3}d_band` entries named the skewed band executors; a band of
// parallelogram tiles is now a sweep run in parts (`slab::tests::banded`),
// and "narrow" parts — narrower than the `VL·s` slabs they read ahead,
// which used to fall back to scalar bands — run the same vector code.
//
// `t1d_avx2` and `lcs_avx2` held the 1-D sweep's codegen sandwiches and
// LCS's resolution. The sandwiches are the tokens' `run` now, the
// constants and `resolve` live in `t1d` and `lcs`, and their tests run
// here unchanged.

#[cfg(test)]
mod t2d {
    mod tests {
        use crate::engine::Engine::Portable;
        use crate::slab::tests::*;

        #[test]
        fn heat2d_matches_reference() {
            rect(&heat2d(), &[Portable], SHAPES_2D, &[4, 8], &[2]);
        }
        #[test]
        fn heat2d_remainder_steps() {
            rect(&heat2d(), &[Portable], SHAPES_2D, STEPS, &[2]);
        }
        #[test]
        fn heat2d_wider_strides() {
            rect(&heat2d(), &[Portable], SHAPES_2D, &[8], STRIDES);
        }
        #[test]
        fn heat2d_tiny_grid_fallback() {
            degenerate(&heat2d(), &[Portable]);
        }
        #[test]
        fn box2d_matches_reference() {
            rect(&box2d(), &[Portable], SHAPES_2D, STEPS, STRIDES);
        }
        #[test]
        fn life_matches_reference_vl8() {
            rect(&life(), &[Portable], SHAPES_2D, STEPS, STRIDES);
            degenerate(&life(), &[Portable]);
        }
        #[test]
        fn life_conway_glider_still_works_vectorized() {
            glider(&[Portable]);
        }
        #[test]
        fn gs2d_matches_reference() {
            rect(&gs2d(), &[Portable], SHAPES_2D, STEPS, &[2]);
        }
        #[test]
        fn gs2d_asymmetric_coeffs() {
            rect(&gs2d_asym(), &[Portable], SHAPES_2D, STEPS, STRIDES);
        }
    }
}

#[cfg(test)]
mod t2d_avx2 {
    mod tests {
        use crate::slab::tests::*;

        #[test]
        fn heat2d_avx2_matches_reference_bitwise() {
            rect(&heat2d(), &avx2(), SHAPES_2D, STEPS, STRIDES);
        }
        #[test]
        fn box2d_avx2_matches_reference_bitwise() {
            rect(&box2d(), &avx2(), SHAPES_2D, STEPS, STRIDES);
        }
        #[test]
        fn gs2d_avx2_matches_reference_bitwise() {
            rect(&gs2d(), &avx2(), SHAPES_2D, STEPS, STRIDES);
            rect(&gs2d_asym(), &avx2(), SHAPES_2D, STEPS, STRIDES);
        }
        #[test]
        fn degenerate_outer_extent_falls_back() {
            degenerate(&heat2d(), &avx2());
            degenerate(&box2d(), &avx2());
            degenerate(&gs2d_asym(), &avx2());
        }
        #[test]
        fn life_avx2_matches_reference_bitwise() {
            rect(&life(), &avx2(), SHAPES_2D, STEPS, STRIDES);
            rect(&conway(), &avx2(), SHAPES_2D, STEPS, STRIDES);
            glider(&avx2());
        }
        #[test]
        fn life_avx2_degenerate_grid_falls_back() {
            degenerate(&life(), &avx2());
        }
    }
}

#[cfg(test)]
mod t2d_band {
    mod tests {
        use crate::engine::Engine::Portable;
        use crate::slab::tests::*;

        #[test]
        fn scalar_banded_sweep_matches_reference() {
            banded(&gs2d(), &[Portable], WIDE_BANDS_2D, &[2], false, true);
            banded(&gs2d(), &[Portable], NARROW_BANDS_2D, &[2], false, false);
        }
        #[test]
        fn temporal_banded_sweep_matches_reference() {
            banded(&gs2d_asym(), &[Portable], WIDE_BANDS_2D, STRIDES, true, true);
        }
        #[test]
        fn avx2_band_matches_scalar_oracle_bitwise() {
            for temporal in [false, true] {
                banded(&gs2d_asym(), &avx2(), WIDE_BANDS_2D, STRIDES, temporal, true);
                banded(&gs2d_asym(), &avx2(), NARROW_BANDS_2D, &[2], temporal, false);
            }
        }
        #[test]
        fn narrow_blocks_fall_back() {
            banded(&gs2d(), &[Portable], NARROW_BANDS_2D, &[2], true, false);
        }
    }
}

#[cfg(test)]
mod t3d {
    mod tests {
        use crate::engine::Engine::Portable;
        use crate::slab::tests::*;

        #[test]
        fn heat3d_matches_reference() {
            rect(&heat3d(), &[Portable], SHAPES_3D, &[4, 8], STRIDES);
        }
        #[test]
        fn heat3d_remainders_and_fallback() {
            rect(&heat3d(), &[Portable], SHAPES_3D, STEPS, &[2]);
            degenerate(&heat3d(), &[Portable]);
        }
        #[test]
        fn gs3d_matches_reference() {
            rect(&gs3d(), &[Portable], SHAPES_3D, STEPS, &[2]);
            degenerate(&gs3d(), &[Portable]);
        }
        #[test]
        fn gs3d_asymmetric_coeffs_wider_stride() {
            rect(&gs3d_asym(), &[Portable], SHAPES_3D, STEPS, STRIDES);
        }
    }
}

#[cfg(test)]
mod t3d_avx2 {
    mod tests {
        use crate::slab::tests::*;

        #[test]
        fn heat3d_avx2_matches_reference_bitwise() {
            rect(&heat3d(), &avx2(), SHAPES_3D, STEPS, STRIDES);
        }
        #[test]
        fn gs3d_avx2_matches_reference_bitwise() {
            rect(&gs3d(), &avx2(), SHAPES_3D, STEPS, STRIDES);
            rect(&gs3d_asym(), &avx2(), SHAPES_3D, STEPS, STRIDES);
        }
        #[test]
        fn degenerate_outer_extent_falls_back() {
            degenerate(&heat3d(), &avx2());
            degenerate(&gs3d_asym(), &avx2());
        }
    }
}

#[cfg(test)]
mod t3d_band {
    mod tests {
        use crate::engine::Engine::Portable;
        use crate::slab::tests::*;

        #[test]
        fn scalar_banded_sweep_matches_reference() {
            banded(&gs3d(), &[Portable], WIDE_BANDS_3D, &[2], false, true);
            banded(&gs3d(), &[Portable], NARROW_BANDS_3D, &[2], false, false);
        }
        #[test]
        fn temporal_banded_sweep_matches_reference() {
            banded(&gs3d_asym(), &[Portable], WIDE_BANDS_3D, STRIDES, true, true);
        }
        #[test]
        fn avx2_band_matches_scalar_oracle_bitwise() {
            for temporal in [false, true] {
                banded(&gs3d_asym(), &avx2(), WIDE_BANDS_3D, STRIDES, temporal, true);
                banded(&gs3d_asym(), &avx2(), NARROW_BANDS_3D, &[2], temporal, false);
            }
        }
        #[test]
        fn narrow_blocks_fall_back() {
            banded(&gs3d(), &[Portable], NARROW_BANDS_3D, &[2], true, false);
        }
    }
}

#[cfg(test)]
mod t1d_avx2 {
    mod tests {
        use crate::t1d::ZMM_REGISTER_STRIDES;
        use crate::engine::{tests::run_whole, Engine, KernelSpace};
        use crate::kernels::{GsKern1d, JacobiKern1d};
        use tempora_grid::{fill_random, Boundary, Grid1};
        use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

        /// The `std::arch` columns this host runs: AVX2 at `s = 2..=7` and the
        /// steps around its four lanes, AVX-512 at every stride its registers
        /// hold and the steps around eight.
        fn columns() -> Vec<(Engine, Vec<usize>, [usize; 3])> {
            let mut columns = vec![];
            if tempora_simd::arch::avx2_available() {
                columns.push((Engine::Avx2, Vec::from_iter(2..=7), [4, 8, 13]));
            }
            if tempora_simd::arch::avx512_available() {
                columns.push((
                    Engine::Avx512,
                    Vec::from_iter(ZMM_REGISTER_STRIDES),
                    [8, 13, 16],
                ));
            }
            columns
        }

        #[test]
        fn avx2_engine_matches_reference_bitwise() {
            let c = Heat1dCoeffs::classic(0.25);
            let kern = JacobiKern1d(c);
            for (engine, strides, all_steps) in columns() {
                for &n in &[16usize, 63, 200, 1000] {
                    for &s in &strides {
                        for steps in all_steps {
                            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.4));
                            fill_random(&mut g, (n + s + steps) as u64, -1.0, 1.0);
                            let ours = run_whole(engine, &g, &kern, steps, s);
                            let gold = reference::heat1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "{engine:?} n={n} s={s} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn gs1d_avx2_matches_reference_bitwise() {
            let c = Gs1dCoeffs::new(0.4, 0.35, 0.25);
            let kern = GsKern1d(c);
            for (engine, strides, all_steps) in columns() {
                for &n in &[16usize, 63, 200, 777] {
                    for &s in &strides {
                        for steps in all_steps {
                            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.3));
                            fill_random(&mut g, (2 * n + s + steps) as u64, -1.0, 1.0);
                            let ours = run_whole(engine, &g, &kern, steps, s);
                            let gold = reference::gs1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "{engine:?} n={n} s={s} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                    }
                }
                // Degenerate n < VL·s runs scalar steps, in the engine's
                // codegen context.
                for n in 1..GsKern1d::vl(engine) * 4 {
                    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.1));
                    fill_random(&mut g, n as u64, -1.0, 1.0);
                    let ours = run_whole(engine, &g, &kern, 8, 4);
                    let gold = reference::gs1d(&g, c, 8);
                    assert!(ours.interior_eq(&gold), "{engine:?} n={n}");
                }
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod lcs_avx2 {
    mod tests {
        use crate::engine::{Engine, Select};
        use crate::lcs::{bands_fit, resolve, VL};
        use crate::lcs::tests::{bands_stitch_exactly, final_row_of, length_of, waved};
        use tempora_grid::random_sequence;
        use tempora_simd::arch::{avx2_available, avx512_available};
        use tempora_stencil::reference;

        /// The `std::arch` engines this host can run.
        fn engines() -> Vec<Engine> {
            let all = crate::engine::tests::engines();
            all.into_iter().filter(|&e| e != Engine::Portable).collect()
        }

        #[test]
        fn final_row_avx2_matches_portable_and_reference() {
            for engine in engines() {
                for &(la, lb) in &[
                    (8usize, 40usize),
                    (16, 100),
                    (24, 33),
                    (40, 17),
                    (7, 50),
                    (64, 257),
                    (35, 1025),
                ] {
                    for s in 1..=3 {
                        let a = random_sequence(la, 4, la as u64);
                        let b = random_sequence(lb, 4, lb as u64 + 1);
                        let ours = final_row_of(engine, &a, &b, s);
                        assert_eq!(
                            ours,
                            final_row_of(Engine::Portable, &a, &b, s),
                            "{engine:?} la={la} lb={lb} s={s} (vs portable)"
                        );
                        assert_eq!(
                            ours,
                            reference::lcs_final_row(&a, &b),
                            "{engine:?} la={la} lb={lb} s={s} (vs reference)"
                        );
                    }
                }
            }
        }

        #[test]
        fn binary_alphabet_and_tiny_b() {
            for engine in engines() {
                for seed in 0..4 {
                    let a = random_sequence(48, 2, seed);
                    let b = random_sequence(96, 2, seed + 100);
                    assert_eq!(
                        length_of(engine, &a, &b, 1),
                        *reference::lcs_final_row(&a, &b).last().unwrap()
                    );
                }
                // b too short for any band: scalar rows.
                let a = random_sequence(16, 4, 9);
                let b = random_sequence(5, 4, 10);
                assert_eq!(
                    final_row_of(engine, &a, &b, 1),
                    reference::lcs_final_row(&a, &b)
                );
                assert_eq!(length_of(engine, b"", b"ABC", 1), 0);
                assert_eq!(length_of(engine, b"ABC", b"", 1), 0);
            }
        }

        #[test]
        fn segmented_tiles_stitch_exactly() {
            // Same stitching property as the portable engine: one sweep per
            // band, cut at the block columns and resumed across them, several
            // bands in flight — at eight lanes and, where the CPU has them,
            // sixteen.
            for engine in engines() {
                bands_stitch_exactly(engine);
            }
        }

        #[test]
        fn steady_iteration_counts_match_reference() {
            // Rows of `VL·s + k` columns run `k` steady iterations: none (the
            // scalar rows), 1, 2, one short of and one past a whole unrolled
            // chunk, and many — whole-row and cut into block columns of the
            // same width plus a ragged last one, where the ring and output
            // vector a part leaves are what the next one starts from. `s = 1,
            // 2` keep the ring in registers, `s = 3` in scratch memory.
            for engine in engines() {
                let vl = crate::lcs::vl(engine);
                for s in 1..=3 {
                    for k in [0, 1, 2, s * (s + 1) - 1, s * (s + 1) + 1, 61] {
                        let seg = vl * s + k;
                        let a = random_sequence(3 * vl, 3, (s + k) as u64);
                        let b = random_sequence(seg, 3, (s * k) as u64 + 7);
                        let gold = reference::lcs_final_row(&a, &b);
                        assert_eq!(
                            final_row_of(engine, &a, &b, s),
                            gold,
                            "{engine:?} whole row s={s} k={k}"
                        );
                        assert_eq!(
                            final_row_of(Engine::Portable, &a, &b, s),
                            gold,
                            "portable s={s} k={k}"
                        );
                        if k == 0 {
                            continue;
                        }
                        // Three full block columns of `seg` and a ragged fourth.
                        let b = random_sequence(3 * seg + vl * s + 1, 3, (s + k) as u64 + 11);
                        let gold = reference::lcs_final_row(&a, &b);
                        let (row, _) = waved(engine, &a, &b, s, seg, 3);
                        assert_eq!(row, gold, "{engine:?} cut s={s} k={k}");
                    }
                }
            }
        }

        #[test]
        fn shape_predicates() {
            let (cpu, wide) = (avx2_available(), avx512_available());
            let narrow = if cpu { Engine::Avx2 } else { Engine::Portable };
            let fits = |la, lb, yb, s| bands_fit(VL, la, lb, yb, s);
            // One block column (the untiled plan): a full band and a row
            // hosting the sweep.
            assert!(fits(8, 9, 9, 1));
            assert!(!fits(7, 100, 100, 1)); // no full band
            assert!(!fits(100, 8, 8, 1)); // row too short
            assert!(!fits(100, 16, 16, 2)); // 16 < 8·2 + 1
            assert!(!fits(100, 0, 1, 1)); // empty B
            assert!(fits(90, 140, 40, 1));
            assert!(!fits(6, 140, 40, 1)); // la < VL
            assert!(!fits(90, 140, 8, 1)); // block column too narrow
            assert!(fits(90, 132, 40, 1)); // ragged 12 ≥ 9
            assert!(!fits(90, 125, 40, 1)); // last column 5 < 9
            for s in [1 << 33, usize::MAX / 4 + 2, usize::MAX] {
                assert!(!fits(90, 140, 40, s)); // VL·s saturates
            }
            // The resolution: eight lanes wherever bands fit, portable where
            // they do not, and sixteen under `Auto` only, where sixteen-lane
            // bands fit and the width formula prices them cheaper.
            let wide = if wide { Engine::Avx512 } else { narrow };
            for (sel, la, lb, yb, s, want) in [
                (Select::Auto, 90, 140, 40, 1, narrow), // 10 scalar rows against 2
                (Select::Auto, 90, 125, 40, 1, Engine::Portable),
                (Select::Auto, 1024, 1024, 1024, 2, wide),
                (Select::Auto, 8192, 8192, 1024, 2, wide),
                (Select::Auto, 64, 64, 64, 2, wide),
                (Select::Auto, 1024, 33, 33, 2, wide),
                (Select::Auto, 1024, 32, 32, 2, narrow), // 32 < 16·2 + 1
                (Select::Auto, 1032, 1024, 1024, 2, wide), // 8 scalar rows against 0
                (Select::Auto, 104, 4096, 4096, 2, wide),
                (Select::Auto, 95, 4096, 4096, 2, narrow), // 15 scalar rows against 7
                (Select::Auto, 24, 4096, 4096, 2, narrow),
                (Select::Auto, 32, 4096, 4096, 2, wide),
                (Select::Auto, 15, 4096, 4096, 2, narrow), // no sixteen-lane band
                (Select::Auto, 1024, 8192, 32, 1, wide),
                (Select::Auto, 1024, 8192, 32, 2, narrow), // 32 < 16·2 + 1
                (Select::Portable, 1024, 1024, 1024, 2, Engine::Portable),
            ] {
                assert_eq!(
                    resolve(sel, la, lb, yb, s),
                    want,
                    "{sel:?} {la} {lb} {yb} {s}"
                );
            }
            if cpu {
                assert_eq!(resolve(Select::Avx2, 1024, 1024, 1024, 2), Engine::Avx2);
                assert_eq!(resolve(Select::Avx2, 7, 1024, 1024, 2), Engine::Portable);
            }
        }
    }
}
