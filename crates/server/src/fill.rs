//! Deterministic server-side state initialization.
//!
//! `RunSteps` carries only a `seed`, never grid payloads (frames stay
//! tiny and the cache key stays purely geometric), so the server and any
//! reference run must derive the *same* initial state from
//! `(problem, seed)`. This module is that single definition — the bench
//! harness and the fault-injection tests call it in-process to assert
//! bitwise identity against server-side runs.
//!
//! Every variant draws from one generator, `tempora_grid::fill`: cell `k`
//! of the payload — the interior in row-major order, halo skipped; an LCS
//! state's `a`, then its `b` — takes word `k` of sixteen xoshiro256**
//! streams seeded through splitmix64 from `seed`, the `⌊k / 16⌋`-th output
//! of stream `k mod 16`, drawn as uniform `[-1, 1)` values, Life cells
//! alive below 0.35, or symbols `0 .. 4`.

use tempora_grid::fill::{spec_fill_rows, Alive, Draw, Symbol, Uniform};
use tempora_grid::{fill_grid, fill_rows, Grid};
use tempora_plan::{Problem, State};
use tempora_simd::Scalar;

/// A freshly initialized state for `problem`, deterministically filled
/// from `seed`: uniform `[-1, 1)` for the `f64` grids, 35% alive cells
/// for Life, and 4-symbol pseudo-random sequences for LCS.
#[must_use]
pub fn fresh_state(problem: &Problem, seed: u64) -> State {
    seeded::<false>(problem, seed)
}

/// [`fresh_state`] drawn by the one-chain definition of its stream
/// (`tempora_grid::fill::spec_fill_rows`): the same state at the speed of
/// one chain, the baseline of `repro ablate-digest`'s fill rows.
#[doc(hidden)]
#[must_use]
pub fn fresh_state_spec(problem: &Problem, seed: u64) -> State {
    seeded::<true>(problem, seed)
}

/// The one definition of both, instantiated apart so that the served
/// path links no one-chain code.
fn seeded<const ONE_CHAIN: bool>(problem: &Problem, seed: u64) -> State {
    fn grid<const ONE_CHAIN: bool, T: Scalar, const D: usize>(
        g: &mut Grid<T, D>,
        seed: u64,
        draw: impl Draw<T>,
    ) {
        if ONE_CHAIN {
            // The rows collected first: the spec flattens its rows once
            // per cell, and over the grid's nested row iterator that cost
            // twice what it does over a list (2-D) or one row (1-D).
            let rows: Vec<_> = g.interior_rows_mut().collect();
            spec_fill_rows(rows, seed, draw);
        } else {
            fill_grid(g, seed, draw);
        }
    }
    let mut state = problem.state();
    let values = Uniform::new(-1.0, 1.0);
    match &mut state {
        State::Grid1(g) => grid::<ONE_CHAIN, _, _>(g, seed, values),
        State::Grid2(g) => grid::<ONE_CHAIN, _, _>(g, seed, values),
        State::Grid2i(g) => grid::<ONE_CHAIN, _, _>(g, seed, Alive(0.35)),
        State::Grid3(g) => grid::<ONE_CHAIN, _, _>(g, seed, values),
        State::Lcs(l) => {
            let sequences = [&mut l.a[..], &mut l.b[..]];
            if ONE_CHAIN {
                spec_fill_rows(sequences, seed, Symbol(4));
            } else {
                fill_rows(sequences, seed, Symbol(4));
            }
            l.length = None;
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_proto::state_digest;
    use tempora_stencil::{Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule};

    fn problems() -> [Problem; 5] {
        [
            Problem::heat1d(128, 4, Heat1dCoeffs::classic(0.25)),
            Problem::heat2d(9, 21, 4, Heat2dCoeffs::classic(0.125)),
            Problem::life(17, 33, 4, LifeRule::b2s23()),
            Problem::heat3d(3, 5, 7, 4, Heat3dCoeffs::classic(0.1)),
            Problem::lcs(64, 48),
        ]
    }

    #[test]
    fn same_seed_same_state_different_seed_different_state() {
        for p in problems() {
            let a = fresh_state(&p, 7);
            let b = fresh_state(&p, 7);
            let c = fresh_state(&p, 8);
            assert_eq!(state_digest(&a), state_digest(&b));
            assert_ne!(state_digest(&a), state_digest(&c));
        }
    }

    #[test]
    fn every_variant_is_its_one_chain_spec() {
        for p in problems() {
            for seed in [0, 5, u64::MAX] {
                let (got, want) = (fresh_state(&p, seed), fresh_state_spec(&p, seed));
                assert_eq!(state_digest(&got), state_digest(&want), "{p:?}");
            }
        }
        // The LCS symbols are one stream across `a` then `b`.
        let lcs = fresh_state(&Problem::lcs(5, 20), 3);
        let l = lcs.lcs().unwrap();
        let mut both = [0u8; 25];
        spec_fill_rows([&mut both[..]], 3, Symbol(4));
        assert_eq!([&l.a[..], &l.b[..]].concat(), both);
    }
}
