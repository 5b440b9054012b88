//! Mechanical checks of the paper's *analytical* claims — the statements
//! the evaluation section argues from, verified on the instrumented
//! kernels rather than trusted.

use tempora::core::engine::{Elem, Engine, KernelSpace};
use tempora::core::kernels::{
    BoxKern2d, GsKern1d, GsKern2d, GsKern3d, JacobiKern1d, JacobiKern2d, JacobiKern3d, LifeKern2d,
};
use tempora::core::t1d::{self, Form, Scratch1d};
use tempora::grid::{fill_random, Boundary, Grid1, SlabGrid, SlabsMut};
use tempora::prelude::{PlanBuilder, Problem, Select, State};
use tempora::simd::{count, Packs, Scalar};
use tempora::stencil::*;

fn grid(n: usize) -> Grid1<f64> {
    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.0));
    fill_random(&mut g, 1, -1.0, 1.0);
    g
}

/// Every engine of this host: each is its own instantiation of the one
/// counted steady state, so each is counted — the 1-D and `f64` 2-D kinds
/// at four lanes and, on `Engine::Avx512`, at eight.
fn engines() -> Vec<Engine> {
    let avx2 = tempora::simd::arch::avx2_available().then_some(Engine::Avx2);
    let avx512 = tempora::simd::arch::avx512_available().then_some(Engine::Avx512);
    [Some(Engine::Portable), avx2, avx512]
        .into_iter()
        .flatten()
        .collect()
}

/// The reorganization ops of `sweeps` whole temporal sweeps of `kern` over
/// `g` at stride `s`, through `KernelSpace::sweep::<true>` on `engine`.
fn count_sweeps<K: KernelSpace>(
    engine: Engine,
    kern: &K,
    g: &mut K::Grid,
    s: usize,
    sweeps: usize,
) -> count::Counts {
    let (dims, lay) = (g.dims(), g.layout());
    let mut sc = K::scratch(engine, dims, s);
    let sess = count::Session::start();
    for _ in 0..sweeps {
        let a = SlabsMut {
            data: g.data_mut(),
            first: 0,
        };
        let x_max = dims[0] + 1 - K::vl(engine) * s;
        kern.sweep::<true>(engine, &lay, a, 1..=x_max, s, &mut sc);
    }
    sess.finish()
}

/// §3.2/§6: "The temporal vectorization leads to a small fixed number of
/// vector reorganizations that is irrelevant to the vector length, stencil
/// order, and dimension" — the steady state costs exactly one rotate
/// (lane-crossing) and one blend (in-lane) per output vector, for every
/// stride and problem size.
#[test]
fn reorg_cost_is_constant_per_output_vector() {
    let c = Heat1dCoeffs::classic(0.25);
    let kern = JacobiKern1d(c);
    for n in [512usize, 4096, 65536] {
        for s in [2usize, 4, 7] {
            for engine in engines() {
                let k = count_sweeps(engine, &kern, &mut grid(n), s, 2);
                assert!(k.output_vectors > 0);
                assert_eq!(k.cross_lane, k.output_vectors, "{engine:?} n={n} s={s}");
                assert_eq!(k.in_lane, k.output_vectors, "{engine:?} n={n} s={s}");
                // Gathers happen only at tile starts: s+1 per tile, 2 tiles.
                assert_eq!(k.gather, 2 * (s as u64 + 1), "{engine:?} n={n} s={s}");
            }
        }
    }
}

/// The same constant holds for Gauss-Seidel — the scheme the paper says
/// no prior vectorization covers at all.
#[test]
fn gs_reorg_cost_matches_jacobi() {
    let c = Gs1dCoeffs::classic(0.25);
    let kern = GsKern1d(c);
    for engine in engines() {
        let k = count_sweeps(engine, &kern, &mut grid(8192), 7, 1);
        assert!(k.output_vectors > 0);
        assert_eq!(k.cross_lane, k.output_vectors, "{engine:?}");
        assert_eq!(k.in_lane, k.output_vectors, "{engine:?}");
    }
}

/// §2.2: the data-reorganization baseline needs at least 2 shuffles per
/// output vector already for the smallest stencil — i.e. strictly more
/// shuffle *work growth potential* than the temporal scheme's constant.
#[test]
fn baseline_shuffle_budget() {
    use tempora::baseline::reorg;
    let c = Heat1dCoeffs::classic(0.25);
    let g = grid(8192);
    let sess = count::Session::start();
    let _ = reorg::heat1d_counted(&g, c, 4);
    let k = sess.finish();
    assert!(k.reorg_total() >= 2 * k.output_vectors);
}

/// §3.2 legality: the minimum strides derived by the dependence analysis
/// match the paper (`s > 1` for 1D3P Jacobi, `s ≥ 1` for LCS), and the
/// engines reject illegal strides.
#[test]
fn minimum_strides_match_paper() {
    assert_eq!(Heat1dCoeffs::deps().min_stride(), 2);
    assert_eq!(Heat2dCoeffs::deps().min_stride(), 2);
    assert_eq!(Heat3dCoeffs::deps().min_stride(), 2);
    assert_eq!(Box2dCoeffs::deps().min_stride(), 2);
    assert_eq!(LifeRule::deps().min_stride(), 2);
    assert_eq!(Gs1dCoeffs::deps().min_stride(), 2);
    assert_eq!(lcs_deps().min_stride(), 1);

    let problem = Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25));
    let result = PlanBuilder::new()
        .select(Select::Portable)
        .stride(1)
        .build(&problem);
    assert!(result.is_err(), "illegal stride must be rejected");
}

/// §3.5: for the two-array Jacobi stencils the temporal scheme runs on a
/// *single* array — the in-place engine touches `n` elements of state
/// where the double-buffered reference touches `2n`.
/// Verified structurally: a temporal plan advances the state's one grid
/// in place and never allocates a second grid-sized buffer (its scratch is
/// `O(s)` per sweep; checked by observing identical results from a sweep
/// whose scratch is tiny relative to the grid).
#[test]
fn jacobi_single_array_execution() {
    // The scratch for s = 7, vl = 4 holds under 200 elements; the grid
    // has 2^16. If the engine secretly depended on a second full array,
    // the in-place tile applied to one buffer could not be bit-identical
    // to the double-buffered reference across 16 sweeps.
    let c = Heat1dCoeffs::classic(0.25);
    let g = grid(1 << 16);
    let problem = Problem::heat1d(g.n(), 64, c);
    let mut state = State::Grid1(g.clone());
    let mut plan = PlanBuilder::new()
        .select(Select::Portable)
        .stride(7)
        .build(&problem)
        .unwrap();
    plan.run(&mut state).unwrap();
    let ours = state.grid1().unwrap();
    let gold = reference::heat1d(&g, c, 64);
    assert!(ours.interior_eq(&gold));
}

/// The paper's vector-length independence claim: the identical engine at
/// `VL = 8` (an AVX-512-shaped register) still costs one rotate + one
/// blend per output vector.
#[test]
fn reorg_cost_independent_of_vector_length() {
    let c = Heat1dCoeffs::classic(0.25);
    let kern = JacobiKern1d(c);
    // One counted sweep at eight lanes in `Packs`, whatever the host.
    let (mut g, n, s) = (grid(4096), 4096, 2);
    let mut sc = Scratch1d::<f64, 8>::new(s);
    let sess = count::Session::start();
    let form = Form(kern, Packs);
    t1d::sweep_body::<f64, 8, true, false, _>(
        g.data_mut(),
        0,
        n,
        &form,
        s,
        &mut sc,
        1..=n + 1 - 8 * s,
    );
    let k = sess.finish();
    assert_eq!(k.cross_lane, k.output_vectors);
    assert_eq!(k.in_lane, k.output_vectors);
    // Measured on the registers too: one sweep at four lanes (`Ymm`) and
    // at eight (`Zmm`, where the host has AVX-512F) stores one output
    // vector per anchor, `n + 1 - VL·s`, each for one rotate and one blend.
    for engine in engines() {
        let vl = JacobiKern1d::vl(engine);
        for s in [2usize, 7, 16] {
            let k = count_sweeps(engine, &kern, &mut grid(4096), s, 1);
            assert_eq!(
                k.output_vectors,
                (4096 + 1 - vl * s) as u64,
                "{engine:?} s={s}"
            );
            assert_eq!(k.cross_lane, k.output_vectors, "{engine:?} s={s}");
            assert_eq!(k.in_lane, k.output_vectors, "{engine:?} s={s}");
        }
    }
}

/// The "irrelevant to … dimension" clause of the same claim: one whole
/// sweep of every 2-D and 3-D kernel through `KernelSpace::sweep::<true>`,
/// on every engine, produces one input vector per interior point of every
/// steady-state slab, each for exactly one rotate and one blend — at
/// `VL = 4` and at `VL = 8` (Life on every engine, the `f64` 2-D kinds on
/// `Engine::Avx512`), star and box neighbourhoods, Jacobi and Gauss-Seidel
/// alike, and with slabs too large for one segment of the steady state
/// (600-column rows, planes of 20 rows of 40): a segment edge is no
/// reorganisation.
#[test]
fn reorg_cost_independent_of_dimension() {
    fn check<K: KernelSpace>(name: &str, kern: K, dims: [usize; 3]) {
        for s in [K::MIN_STRIDE, K::MIN_STRIDE + 1] {
            for engine in engines() {
                let mut g = K::Grid::with_dims(dims, Boundary::Dirichlet(Elem::<K>::ZERO));
                let k = count_sweeps(engine, &kern, &mut g, s, 1);
                let slabs = dims[0] + 1 - K::vl(engine) * s;
                let vectors = (slabs * dims[1] * dims[2]) as u64;
                assert_eq!(k.output_vectors, vectors, "{name} {engine:?} s={s}");
                assert_eq!(k.cross_lane, vectors, "{name} {engine:?} s={s}");
                assert_eq!(k.in_lane, vectors, "{name} {engine:?} s={s}");
            }
        }
    }
    check(
        "heat2d",
        JacobiKern2d(Heat2dCoeffs::classic(0.125)),
        [40, 17, 1],
    );
    check("box2d", BoxKern2d(Box2dCoeffs::smooth(0.1)), [40, 17, 1]);
    check("gs2d", GsKern2d(Gs2dCoeffs::classic(0.2)), [40, 17, 1]);
    check("life", LifeKern2d(LifeRule::b2s23()), [40, 17, 1]);
    check(
        "heat3d",
        JacobiKern3d(Heat3dCoeffs::classic(0.1)),
        [24, 6, 7],
    );
    check("gs3d", GsKern3d(Gs3dCoeffs::classic(0.1)), [24, 6, 7]);
    check(
        "heat2d segmented",
        JacobiKern2d(Heat2dCoeffs::classic(0.125)),
        [40, 600, 1],
    );
    check(
        "gs2d segmented",
        GsKern2d(Gs2dCoeffs::classic(0.2)),
        [40, 600, 1],
    );
    check(
        "heat3d banded",
        JacobiKern3d(Heat3dCoeffs::classic(0.1)),
        [24, 20, 40],
    );
}
