//! The state digest: one 64-bit word both ends of the wire compute over
//! a [`State`]'s full payload to assert bitwise identity.
//!
//! # Definition
//!
//! ```text
//! step(h, w)  = rotl32((h ^ w) · 0x9e3779b97f4a7c15 mod 2^64)
//! head        = fold step over [tag, outer, middle, inner] from SEED    (State::extents; LCS: then length)
//! part(h, ws) = lane[l] = step(h, l);  lane[i % LANES] = step(lane[i % LANES], ws[i]) for i = 0, 1, …;
//!               fold step over [lane[0], …, lane[LANES − 1], len(ws)] from h
//! digest      = step(fold part over the payload parts from head, tag)
//! ```
//!
//! A payload part is a sequence of words: one canonical `f64` bit
//! pattern ([`canon_f64`]) per grid point, halo and padding included;
//! two `i32` cells per word (`lo | hi << 32`); eight LCS symbols per word
//! (little-endian) — the last word zero-padded. A grid is one part, an
//! LCS state two (`a`, `b`). Everything is defined by value, not by host
//! byte order, so the digest is the same on every target.
//!
//! `step` is a bijection of `h ^ w`, so two payloads that differ in one
//! word always digest differently. The rotation brings the product's
//! well-mixed high half down: a high-bit difference (an `f64` sign)
//! reaches every bit one step later and cannot cancel against the same
//! difference in the lane's next element, which a bare `(h ^ w) · odd`
//! allows. The tag and the extents separate the variants and the shapes;
//! the word count separates a payload from its zero-extended self.
//!
//! The [`LANES`] chains of a part are independent. A hash is a
//! loop-carried recurrence and runs at the speed of its dependence
//! chain — five cycles a word here — unless several chains run side by
//! side: the paper's answer for Gauss-Seidel and LCS, applied to the
//! layer that was the largest of a served cache hit.

use crate::canon::canon_f64;
use tempora_plan::State;

/// Independent chains a payload part is dealt across. Four, by
/// measurement (`repro ablate-digest`, GiB/s on a quiet host; one chain
/// reads 4.5–4.8 whatever it folds): the served `f64` payload reads
/// 9.0–9.3 at 2 lanes, 16.4–18.5 at 4, 13.2–16.4 at 6 and 12.7–13.5 at
/// 8, where lanes, loaded words and the NaN test no longer fit sixteen
/// registers; the `i32` and byte payloads, which test nothing, read
/// 17.4–18.5 at 4 and 22.1–22.8 at 8.
pub const LANES: usize = 4;

const SEED: u64 = 0x243f_6a88_85a3_08d3;

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
}

/// `part(h, ws)` of the module docs over `cells`, `E` of which make a
/// word (`word`; a short last chunk is zero-padded first).
#[inline(always)]
fn fold_part<T: Copy + Default, const E: usize>(
    h: u64,
    cells: &[T],
    word: impl Fn([T; E]) -> u64,
) -> u64 {
    let mut lanes: [u64; LANES] = core::array::from_fn(|l| step(h, l as u64));
    let mut blocks = cells.chunks_exact(E * LANES);
    for block in &mut blocks {
        for (lane, e) in lanes.iter_mut().zip(block.chunks_exact(E)) {
            *lane = step(*lane, word(core::array::from_fn(|k| e[k])));
        }
    }
    for (lane, e) in lanes.iter_mut().zip(blocks.remainder().chunks(E)) {
        let mut padded = [T::default(); E];
        padded[..e.len()].copy_from_slice(e);
        *lane = step(*lane, word(padded));
    }
    let h = lanes.iter().fold(h, |h, &lane| step(h, lane));
    step(h, cells.len().div_ceil(E) as u64)
}

// One copy of the loop per cell type, whatever the number of callers.

fn fold_f64s(h: u64, data: &[f64]) -> u64 {
    // `canon_f64` on the bits, with the NaN case behind a call the
    // optimiser cannot turn into a select: the usual element then costs
    // one never-taken compare-and-branch in the integer registers.
    #[cold]
    #[inline(never)]
    fn quiet_nan() -> u64 {
        f64::NAN.to_bits()
    }
    fold_part(h, data, |[v]: [f64; 1]| {
        let bits = v.to_bits();
        if bits << 1 > 0x7ff0_0000_0000_0000 << 1 {
            quiet_nan()
        } else {
            bits
        }
    })
}

fn fold_i32s(h: u64, data: &[i32]) -> u64 {
    fold_part(h, data, |[lo, hi]: [i32; 2]| {
        u64::from(lo as u32) | u64::from(hi as u32) << 32
    })
}

fn fold_bytes(h: u64, data: &[u8]) -> u64 {
    fold_part(h, data, u64::from_le_bytes)
}

/// Hash of a short byte string (the canonical problem/spec encodings):
/// one headless payload part of [`state_digest`]'s fold.
pub(crate) fn bytes_hash(bytes: &[u8]) -> u64 {
    fold_bytes(SEED, bytes)
}

fn tag(state: &State) -> u64 {
    match state {
        State::Grid1(_) => 1,
        State::Grid2(_) => 2,
        State::Grid2i(_) => 3,
        State::Grid3(_) => 4,
        State::Lcs(_) => 5,
    }
}

fn lcs_length_word(length: Option<i32>) -> u64 {
    i64::from(length.unwrap_or(-1)) as u64
}

/// A deterministic 64-bit digest of a [`State`]'s full payload (grid
/// data including halo, or LCS sequences and result) — see the module
/// docs for the definition. Two bitwise-identical states — e.g. a
/// cached plan's output versus a fresh plan's — digest equal (NaNs by
/// [`canon_f64`]: payloads collapse, signed zeros do not); states of
/// different variants or extents, or differing in one element, digest
/// different (beyond that, up to hash collision).
#[must_use]
pub fn state_digest(state: &State) -> u64 {
    let tag = tag(state);
    let extents = state.extents();
    let h = extents
        .iter()
        .fold(step(SEED, tag), |h, &e| step(h, e as u64));
    let h = match state {
        State::Grid1(g) => fold_f64s(h, g.data()),
        State::Grid2(g) => fold_f64s(h, g.data()),
        State::Grid2i(g) => fold_i32s(h, g.data()),
        State::Grid3(g) => fold_f64s(h, g.data()),
        State::Lcs(l) => {
            let h = step(h, lcs_length_word(l.length));
            fold_bytes(fold_bytes(h, &l.a), &l.b)
        }
    };
    step(h, tag)
}

/// What [`state_digest`] folds, by value, and the definition restated
/// one lane after the other: the oracle of this module's tests and the
/// single-chain baseline of `repro ablate-digest`.
#[doc(hidden)]
pub struct DigestInput {
    /// The variant tag.
    pub tag: u64,
    /// The words folded ahead of the payload (extents; LCS: then length).
    pub head: Vec<u64>,
    /// The payload parts, as words.
    pub parts: Vec<Vec<u64>>,
}

impl DigestInput {
    /// Decompose `state`.
    #[must_use]
    pub fn of(state: &State) -> DigestInput {
        let f64s = |d: &[f64]| d.iter().map(|&v| canon_f64(v)).collect();
        let pair = |e: &[i32]| {
            e.iter()
                .rev()
                .fold(0, |w, &c| w << 32 | u64::from(c as u32))
        };
        let octet = |e: &[u8]| e.iter().rev().fold(0, |w, &c| w << 8 | u64::from(c));
        let mut head: Vec<u64> = state.extents().iter().map(|&e| e as u64).collect();
        let parts = match state {
            State::Grid1(g) => vec![f64s(g.data())],
            State::Grid2(g) => vec![f64s(g.data())],
            State::Grid2i(g) => vec![g.data().chunks(2).map(pair).collect()],
            State::Grid3(g) => vec![f64s(g.data())],
            State::Lcs(l) => {
                head.push(lcs_length_word(l.length));
                [&l.a, &l.b]
                    .map(|s| s.chunks(8).map(octet).collect())
                    .to_vec()
            }
        };
        DigestInput {
            tag: tag(state),
            head,
            parts,
        }
    }

    /// The digest, by the definition in the module docs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let head = self
            .head
            .iter()
            .fold(step(SEED, self.tag), |h, &e| step(h, e));
        step(
            self.parts.iter().fold(head, |h, ws| spec_part(h, ws)),
            self.tag,
        )
    }
}

/// `part(h, ws)` of the module docs, one lane after the other.
fn spec_part(h: u64, words: &[u64]) -> u64 {
    let mut lanes = [0; LANES];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = step(h, l as u64);
        for i in (l..words.len()).step_by(LANES) {
            *lane = step(*lane, words[i]);
        }
    }
    let h = lanes.iter().fold(h, |h, &lane| step(h, lane));
    step(h, words.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tempora_grid::{fill_random_1d, fill_random_life, random_sequence};
    use tempora_plan::Problem;
    use tempora_stencil::{Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule};

    /// `n` seeded words (SplitMix64).
    fn seeded(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = proptest::TestRng::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// A `Grid1` state holding `data` as its interior.
    fn grid1(data: &[f64]) -> State {
        let mut s = Problem::heat1d(data.len(), 4, Heat1dCoeffs::classic(0.25)).state();
        s.grid1_mut().unwrap().fill_interior(|i| data[i]);
        s
    }

    #[test]
    fn fast_path_equals_spec_over_the_length_table() {
        // Every tail shape of every cell width: whole blocks, whole
        // words short of a block, and a padded last word.
        for words in 0..=4 * LANES + 3 {
            let ws = seeded(words, words as u64);
            let f64s: Vec<f64> = ws.iter().map(|&w| f64::from_bits(w)).collect();
            let canon: Vec<u64> = f64s.iter().map(|&v| canon_f64(v)).collect();
            assert_eq!(fold_f64s(7, &f64s), spec_part(7, &canon), "{words} f64");
            for short in 0..8.min(8 * words) {
                let bytes: Vec<u8> = ws.iter().flat_map(|w| w.to_le_bytes()).collect();
                let bytes = &bytes[..bytes.len() - short];
                let mut padded = ws.clone();
                *padded.last_mut().unwrap() &= u64::MAX >> (8 * short);
                assert_eq!(
                    fold_bytes(7, bytes),
                    spec_part(7, &padded),
                    "{words} − {short} B"
                );
                if short % 4 == 0 {
                    let cells: Vec<i32> = bytes
                        .chunks(4)
                        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    assert_eq!(fold_i32s(7, &cells), spec_part(7, &padded), "{words} i32");
                }
            }
        }
        assert_eq!(fold_bytes(7, &[]), spec_part(7, &[]));
    }

    /// One seeded state per `State` variant, odd sizes on purpose.
    fn five_states() -> [State; 5] {
        let mut states = [
            Problem::heat1d(257, 4, Heat1dCoeffs::classic(0.25)),
            Problem::heat2d(19, 23, 4, Heat2dCoeffs::classic(0.125)),
            Problem::life(33, 17, 4, LifeRule::b2s23()),
            Problem::heat3d(5, 6, 7, 4, Heat3dCoeffs::classic(0.1)),
            Problem::lcs(40, 50),
        ]
        .map(|p| p.state());
        fill_random_1d(states[0].grid1_mut().unwrap(), 7, -1.0, 1.0);
        tempora_grid::fill_random_2d(states[1].grid2_mut().unwrap(), 7, -1.0, 1.0);
        fill_random_life(states[2].grid2i_mut().unwrap(), 7, 0.35);
        tempora_grid::fill_random_3d(states[3].grid3_mut().unwrap(), 7, -1.0, 1.0);
        let l = states[4].lcs_mut().unwrap();
        (l.a, l.b) = (random_sequence(40, 4, 7), random_sequence(50, 4, 8));
        states
    }

    #[test]
    fn fast_path_equals_spec_on_all_five_variants() {
        for state in &mut five_states() {
            let name = state.variant_name();
            assert_eq!(
                state_digest(state),
                DigestInput::of(state).digest(),
                "{name}"
            );
            if let Some(l) = state.lcs_mut() {
                l.length = Some(23);
                assert_eq!(state_digest(state), DigestInput::of(state).digest());
            }
        }
    }

    #[test]
    fn digest_values_are_pinned() {
        // Recorded from `DigestInput::digest` (the spec), not from the
        // fast path: both ends of the wire compare these values.
        let [heat, _, life, _, mut lcs] = five_states();
        assert_eq!(state_digest(&heat), 0x3607_cca9_5f6a_7803);
        assert_eq!(state_digest(&life), 0x64fd_e344_ff78_90df);
        assert_eq!(state_digest(&lcs), 0x014d_4ad9_f648_5632);
        lcs.lcs_mut().unwrap().length = Some(23);
        assert_eq!(state_digest(&lcs), 0x1590_1d55_6e80_f2b5);
    }

    #[test]
    fn digest_distinguishes_states_and_matches_identical_ones() {
        let p = Problem::heat1d(128, 4, Heat1dCoeffs::classic(0.25));
        let mut a = p.state();
        let mut b = p.state();
        assert_eq!(state_digest(&a), state_digest(&b));
        a.grid1_mut().unwrap().fill_interior(|i| i as f64);
        assert_ne!(state_digest(&a), state_digest(&b));
        b.grid1_mut().unwrap().fill_interior(|i| i as f64);
        assert_eq!(state_digest(&a), state_digest(&b));
    }

    #[test]
    fn variants_and_extents_are_part_of_the_digest() {
        // Regressions: both pairs collided when only the payload bytes
        // were hashed.
        let lcs = |a: &[u8], b: &[u8]| {
            let mut s = Problem::lcs(a.len(), b.len()).state();
            let l = s.lcs_mut().unwrap();
            (l.a, l.b) = (a.to_vec(), b.to_vec());
            s
        };
        assert_ne!(
            state_digest(&lcs(b"AB", b"C")),
            state_digest(&lcs(b"A", b"BC"))
        );
        // A Grid1 and a Grid2 holding the same words: 70 + 2 and
        // (1 + 2) × (22 + 2) are both 72 points, no padding in either.
        let mut line = Problem::heat1d(70, 4, Heat1dCoeffs::classic(0.25)).state();
        let mut plane = Problem::heat2d(1, 22, 4, Heat2dCoeffs::classic(0.125)).state();
        plane.grid2_mut().unwrap().fill_interior(|_, j| j as f64);
        let words = plane.grid2_mut().unwrap().data().to_vec();
        line.grid1_mut().unwrap().data_mut().copy_from_slice(&words);
        let same_words =
            |a: &State, b: &State| DigestInput::of(a).parts == DigestInput::of(b).parts;
        assert!(same_words(&line, &plane));
        assert_ne!(state_digest(&line), state_digest(&plane));
        // One variant, the same 72 words, two shapes.
        let other = Problem::heat2d(7, 6, 4, Heat2dCoeffs::classic(0.125)).state();
        let plane = Problem::heat2d(1, 22, 4, Heat2dCoeffs::classic(0.125)).state();
        assert!(same_words(&other, &plane));
        assert_ne!(state_digest(&other), state_digest(&plane));
    }

    #[test]
    fn nan_payloads_collapse_and_signed_zeros_do_not() {
        let nan1 = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan2 = f64::from_bits(0xfff0_0000_dead_beef);
        let with = |v: f64| grid1(&[1.0, 2.0, v, 4.0, 5.0, 6.0]);
        assert_eq!(state_digest(&with(nan1)), state_digest(&with(nan2)));
        assert_eq!(state_digest(&with(nan1)), state_digest(&with(f64::NAN)));
        assert_ne!(state_digest(&with(0.0)), state_digest(&with(-0.0)));
        assert_ne!(
            state_digest(&with(f64::INFINITY)),
            state_digest(&with(f64::NAN))
        );
    }

    proptest! {
        #[test]
        fn any_single_bit_flip_changes_the_digest(
            seed in any::<u64>(), n in 1usize..40, at in any::<usize>(), bit in 0u32..64,
        ) {
            let ws = seeded(n, seed);
            let mut flipped = ws.clone();
            flipped[at % n] ^= 1 << bit;
            prop_assert_ne!(spec_part(seed, &ws), spec_part(seed, &flipped));
            // Through the fast path and a real state too, on finite
            // values (a flip inside a NaN's payload is meant to collapse).
            let finite = |ws: &[u64]| -> Vec<f64> {
                ws.iter().map(|&w| f64::from_bits(w & !(1 << 62))).collect()
            };
            if bit != 62 {
                let (a, b) = (grid1(&finite(&ws)), grid1(&finite(&flipped)));
                prop_assert_ne!(state_digest(&a), state_digest(&b));
            }
        }

        #[test]
        fn sign_flips_of_two_elements_of_one_lane_do_not_cancel(
            seed in any::<u64>(), blocks in 2usize..10, i in any::<usize>(), j in any::<usize>(),
        ) {
            let data: Vec<f64> = seeded(blocks * LANES, seed)
                .iter()
                .map(|&w| f64::from_bits(w & !(1 << 62)))
                .collect();
            let (i, j) = (i % data.len(), j % data.len());
            let j = i % LANES + j / LANES * LANES; // i's lane
            if i != j {
                let mut flipped = data.clone();
                (flipped[i], flipped[j]) = (-data[i], -data[j]);
                prop_assert_ne!(state_digest(&grid1(&data)), state_digest(&grid1(&flipped)));
            }
        }

        #[test]
        fn swapping_two_unequal_elements_changes_the_digest(
            seed in any::<u64>(), n in 2usize..40, i in any::<usize>(), j in any::<usize>(),
        ) {
            // `i` and `j` land in the same lane and in different lanes.
            let ws = seeded(n, seed);
            let (i, j) = (i % n, j % n);
            if ws[i] != ws[j] {
                let mut swapped = ws.clone();
                swapped.swap(i, j);
                prop_assert_ne!(spec_part(seed, &ws), spec_part(seed, &swapped));
                let bytes = |ws: &[u64]| -> Vec<u8> {
                    ws.iter().flat_map(|w| w.to_le_bytes()).collect()
                };
                prop_assert_ne!(fold_bytes(seed, &bytes(&ws)), fold_bytes(seed, &bytes(&swapped)));
            }
        }

        #[test]
        fn appending_a_zero_element_changes_the_digest(seed in any::<u64>(), n in 0usize..40) {
            let mut ws = seeded(n, seed);
            let before = spec_part(seed, &ws);
            ws.push(0);
            prop_assert_ne!(before, spec_part(seed, &ws));
            let data: Vec<f64> = vec![0.0; n];
            prop_assert_ne!(fold_f64s(seed, &data), fold_f64s(seed, &vec![0.0; n + 1]));
        }
    }
}
