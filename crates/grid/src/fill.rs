//! The seeded fill: every workload's initial state, drawn from sixteen
//! xoshiro256** streams side by side.
//!
//! # Definition
//!
//! ```text
//! z(i)      = splitmix64's i-th output from seed: mix(seed + i · 0x9e3779b97f4a7c15 mod 2^64), i = 1, 2, …
//! stream l  = xoshiro256** from the state [z(4l + 1), z(4l + 2), z(4l + 3), z(4l + 4)], l = 0 … 15
//! word k    = the ⌊k / 16⌋-th output of stream k mod 16
//! unit(w)   = f64::from_bits(0x3ff0_0000_0000_0000 | w >> 12) − 1      (52 bits, in [0, 1))
//! f64 cell  = v = lo + (hi − lo) · unit(w), or lo where v rounds up to ≥ hi
//! Life cell = 1 if unit(w) < p, else 0
//! symbol    = ⌊(w >> 32) · alphabet / 2^32⌋
//! ```
//!
//! Cell `k` of a fill takes word `k`, the cells counted in row-major order
//! with the halo skipped: the interior rows of a 2-D or 3-D grid, and the
//! two sequences of an LCS state, carry the stream across their ends.
//!
//! A generator is a loop-carried recurrence: one xoshiro256** chain yields
//! a word per latency of its state update, and drawing a served 4096-point
//! state that way took ≈ 10 µs. Independent chains that share a vector
//! run at the rate of the ports instead — the paper's answer for
//! Gauss-Seidel and LCS, applied to what was the largest layer of a served
//! request that is not compute. Inside [`Zmm::run`] a state word of the
//! sixteen streams is two `zmm` registers, and a step of all sixteen, with
//! their `f64` cells, is ≈ 40 vector instructions with no stack traffic:
//! `repro ablate-digest` reads 5.7–9.4× the one-chain spec on a 2-vCPU
//! AVX-512 host (where eight lanes, one register, measured as fast: the
//! step is bound by its ports, not by its chain). The streams are defined
//! by their lanes, not by an ISA: the fill runs inside [`Zmm::run`], else
//! [`Ymm::run`], else in baseline code, and all three write the same bits.
//!
//! [`Zmm::run`]: tempora_simd::arch::Zmm::run
//! [`Ymm::run`]: tempora_simd::arch::Ymm::run

use crate::Grid;
#[cfg(target_arch = "x86_64")]
use tempora_simd::arch::{Ymm, Zmm};
use tempora_simd::Scalar;

/// Streams side by side: word `k` comes from stream `k % LANES`.
pub const LANES: usize = 16;

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output function.
#[inline(always)]
fn mix(x: u64) -> u64 {
    let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Word `j` of stream `l`'s initial state: splitmix64's output `4l + j + 1`.
#[inline(always)]
fn seed_word(seed: u64, l: usize, j: usize) -> u64 {
    mix(seed.wrapping_add(((4 * l + j + 1) as u64).wrapping_mul(GAMMA)))
}

/// The unit value of a word: its top 52 bits as the mantissa of a number
/// in `[1, 2)`, less one — exact, and without an int → float conversion,
/// which the vector ISAs lack for 64-bit lanes below AVX-512DQ.
#[inline(always)]
fn unit(w: u64) -> f64 {
    f64::from_bits(0x3ff0_0000_0000_0000 | w >> 12) - 1.0
}

/// How a fill turns a word into a cell.
pub trait Draw<T>: Copy {
    /// The cell of word `w`.
    fn draw(self, w: u64) -> T;
}

/// Uniform `f64` cells in `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
    span: f64,
}

impl Uniform {
    /// Cells in `[lo, hi)`; panics unless `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Uniform {
        assert!(lo < hi, "uniform fill over an empty range {lo}..{hi}");
        Uniform {
            lo,
            hi,
            span: hi - lo,
        }
    }
}

impl Draw<f64> for Uniform {
    #[inline(always)]
    fn draw(self, w: u64) -> f64 {
        let v = self.lo + self.span * unit(w);
        // The product may round up to the open bound.
        if v >= self.hi {
            self.lo
        } else {
            v
        }
    }
}

/// Game-of-Life cells: alive (`1`) with probability `p`, else `0`.
#[derive(Clone, Copy, Debug)]
pub struct Alive(pub f64);

impl Draw<i32> for Alive {
    #[inline(always)]
    fn draw(self, w: u64) -> i32 {
        i32::from(unit(w) < self.0)
    }
}

/// Sequence symbols in `0 .. alphabet`.
#[derive(Clone, Copy, Debug)]
pub struct Symbol(pub u8);

impl Draw<u8> for Symbol {
    #[inline(always)]
    fn draw(self, w: u64) -> u8 {
        (((w >> 32) * u64::from(self.0)) >> 32) as u8
    }
}

/// The sixteen xoshiro256** states, one array per state word, so that one
/// update is the same few instructions over every lane.
struct Streams([[u64; LANES]; 4]);

impl Streams {
    /// The sixteen initial states. Seeding runs once per fill, outside the
    /// sandwiches, so every instantiation of the fill shares one copy.
    #[inline(never)]
    fn seeded(seed: u64) -> Streams {
        let mut s = [[0; LANES]; 4];
        for (j, word) in s.iter_mut().enumerate() {
            for (l, w) in word.iter_mut().enumerate() {
                *w = seed_word(seed, l, j);
            }
        }
        Streams(s)
    }

    /// The next word of every stream: one xoshiro256** step per lane.
    /// `· 5` and `· 9` are written as shifts and adds, which every vector
    /// ISA has (a 64-bit lane multiply needs AVX-512DQ).
    #[inline(always)]
    fn step(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.0;
        let mut out = [0; LANES];
        for l in 0..LANES {
            let x = s1[l].wrapping_add(s1[l] << 2).rotate_left(7);
            out[l] = x.wrapping_add(x << 3);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        out
    }
}

/// The cells of one step of the streams.
#[inline(always)]
fn drawn<T: Copy + Default, D: Draw<T>>(streams: &mut Streams, draw: D) -> [T; LANES] {
    let words = streams.step();
    let mut cells = [T::default(); LANES];
    for (c, &w) in cells.iter_mut().zip(&words) {
        *c = draw.draw(w);
    }
    cells
}

/// Rows a fill writes, in order: any sequence of slices, or a grid's
/// interior walked by slab, row and pitch ([`fill_grid`]).
pub(crate) trait FillRows<T> {
    /// Hand each row to `fill`, in order, in plain loops: no closure and
    /// no call leaves the codegen context the fill runs in.
    fn fill_each<D: Draw<T>>(self, fill: &mut Fill<T, D>);
}

impl<'a, T: Copy + Default + 'a, I: IntoIterator<Item = &'a mut [T]>> FillRows<T> for I {
    #[inline(always)]
    fn fill_each<D: Draw<T>>(self, fill: &mut Fill<T, D>) {
        for row in self {
            fill.row(row);
        }
    }
}

/// `dst = src` for fewer than [`LANES`] cells, as at most four copies of
/// a constant length and none when empty: a row's ragged ends, which a
/// `memcpy` call per row would cost more than they are worth.
#[inline(always)]
fn copy_short<T: Copy>(dst: &mut [T], src: &[T]) {
    let mut at = 0;
    for piece in [8, 4, 2, 1] {
        if dst.len() - at >= piece {
            dst[at..at + piece].copy_from_slice(&src[at..at + piece]);
            at += piece;
        }
    }
}

/// A fill between two rows: the streams, and the step whose first cells
/// ended the last row (`carry[used..]` begins the next).
pub(crate) struct Fill<T, D> {
    streams: Streams,
    draw: D,
    carry: [T; LANES],
    used: usize,
}

impl<T: Copy + Default, D: Draw<T>> Fill<T, D> {
    /// The next row: the carried cells, whole steps straight into it, and
    /// its ragged end from one step whose rest is carried.
    #[inline(always)]
    pub(crate) fn row(&mut self, row: &mut [T]) {
        let take = (LANES - self.used).min(row.len());
        let (head, row) = row.split_at_mut(take);
        copy_short(head, &self.carry[self.used..self.used + take]);
        self.used += take;
        let (steps, tail) = row.as_chunks_mut::<LANES>();
        for cells in steps {
            *cells = drawn(&mut self.streams, self.draw);
        }
        if !tail.is_empty() {
            self.carry = drawn(&mut self.streams, self.draw);
            copy_short(tail, &self.carry[..tail.len()]);
            self.used = tail.len();
        }
    }
}

/// The fill, written once for every codegen context.
#[inline(always)]
fn fill_lanes<T: Copy + Default, D: Draw<T>>(rows: impl FillRows<T>, streams: Streams, draw: D) {
    let carry = [T::default(); LANES];
    rows.fill_each(&mut Fill {
        streams,
        draw,
        carry,
        used: LANES,
    });
}

/// A codegen context the fill can run in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Codegen {
    /// Inside [`Zmm::run`]: each state word two `zmm` registers.
    #[cfg(target_arch = "x86_64")]
    Zmm(Zmm),
    /// Inside [`Ymm::run`].
    #[cfg(target_arch = "x86_64")]
    Ymm(Ymm),
    /// Baseline code for the target.
    Baseline,
}

impl Codegen {
    /// The widest context the running CPU has.
    pub(crate) fn detect() -> Codegen {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(zmm) = Zmm::detect() {
                return Codegen::Zmm(zmm);
            }
            if let Some(ymm) = Ymm::detect() {
                return Codegen::Ymm(ymm);
            }
        }
        Codegen::Baseline
    }

    /// Fill `rows` in this context.
    pub(crate) fn fill<T: Copy + Default, D: Draw<T>>(
        self,
        rows: impl FillRows<T>,
        seed: u64,
        draw: D,
    ) {
        let streams = Streams::seeded(seed);
        match self {
            #[cfg(target_arch = "x86_64")]
            Codegen::Zmm(isa) => isa.run(
                #[inline(always)]
                move || fill_lanes(rows, streams, draw),
            ),
            #[cfg(target_arch = "x86_64")]
            Codegen::Ymm(isa) => isa.run(
                #[inline(always)]
                move || fill_lanes(rows, streams, draw),
            ),
            Codegen::Baseline => fill_lanes(rows, streams, draw),
        }
    }
}

/// Fill `rows`, in order, with the seeded stream of the module docs: cell
/// `k` of their concatenation takes word `k`, drawn by `draw`.
pub fn fill_rows<'a, T: Copy + Default + 'a>(
    rows: impl IntoIterator<Item = &'a mut [T]>,
    seed: u64,
    draw: impl Draw<T>,
) {
    Codegen::detect().fill(rows, seed, draw);
}

/// Fill the interior of `g` with the seeded stream of the module docs, in
/// row-major order: [`fill_rows`] over its interior rows, with the rows
/// walked inside the fill's loop.
pub fn fill_grid<T: Scalar, const D: usize>(g: &mut Grid<T, D>, seed: u64, draw: impl Draw<T>) {
    Codegen::detect().fill(g.rows_for_fill(), seed, draw);
}

/// The definition of the module docs restated one stream after the other
/// — the oracle of the fill's tests and the one-chain baseline of `repro
/// ablate-digest`: [`fill_rows`]'s result, at the speed of one chain.
#[doc(hidden)]
pub fn spec_fill_rows<'a, T: 'a>(
    rows: impl IntoIterator<Item = &'a mut [T]>,
    seed: u64,
    draw: impl Draw<T>,
) {
    let mut cells: Vec<&mut T> = rows.into_iter().flatten().collect();
    for l in 0..LANES {
        let mut s: [u64; 4] = core::array::from_fn(|j| seed_word(seed, l, j));
        for cell in cells.iter_mut().skip(l).step_by(LANES) {
            let w = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            **cell = draw.draw(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Boundary, Grid1, Grid2, Grid3};

    /// Every context this host can run.
    fn contexts() -> Vec<Codegen> {
        let mut all = vec![Codegen::Baseline];
        #[cfg(target_arch = "x86_64")]
        {
            all.extend(Ymm::detect().map(Codegen::Ymm));
            all.extend(Zmm::detect().map(Codegen::Zmm));
        }
        all
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn first_words_match_the_reference_streams() {
        // Stream 0 is xoshiro256** from splitmix64's first four outputs
        // of the seed; 0xe220a8397b1dcdaf is splitmix64's first output
        // from 0 (its reference implementation).
        assert_eq!(mix(GAMMA), 0xe220_a839_7b1d_cdaf);
        let mut words = vec![0u64; 3 * LANES];
        spec_fill_rows([&mut words[..]], 0, Word);
        let mut one = crate::seeded_rng(0);
        for k in (0..words.len()).step_by(LANES) {
            assert_eq!(words[k], rand::RngCore::next_u64(&mut one));
        }
        let mut lanes = vec![0u64; 3 * LANES];
        fill_rows([&mut lanes[..]], 0, Word);
        assert_eq!(words, lanes);
        // Distinct streams, and each moves on.
        assert_ne!(words[0], words[1]);
        assert_ne!(words[0], words[LANES]);
    }

    /// The word itself.
    #[derive(Clone, Copy)]
    struct Word;

    impl Draw<u64> for Word {
        #[inline(always)]
        fn draw(self, w: u64) -> u64 {
            w
        }
    }

    #[test]
    fn every_context_writes_the_spec_bits_on_lines() {
        for n in [0, 1, 15, 16, 17, 31, 33, 4096] {
            for seed in [0, 7, u64::MAX] {
                let mut want = Grid1::new(n, 1, Boundary::Dirichlet(0.5));
                spec_fill_rows(want.interior_rows_mut(), seed, Uniform::new(-1.0, 1.0));
                for isa in contexts() {
                    let mut got = Grid1::new(n, 1, Boundary::Dirichlet(0.5));
                    isa.fill(got.interior_rows_mut(), seed, Uniform::new(-1.0, 1.0));
                    assert_eq!(bits(got.data()), bits(want.data()), "{isa:?} n={n}");
                    got.check_canaries().unwrap();
                }
                // The public fill is one of them.
                let mut got = Grid1::new(n, 1, Boundary::Dirichlet(0.5));
                crate::fill_random(&mut got, seed, -1.0, 1.0);
                assert_eq!(bits(got.data()), bits(want.data()));
            }
        }
    }

    #[test]
    fn every_context_writes_the_spec_bits_on_grids_and_sequences() {
        // Rows of 5, 7, 17 and 23 cells: the stream crosses row ends at
        // many offsets into a step (and at none with rows of 16).
        for (nx, ny) in [(3, 5), (9, 17), (2, 23), (0, 7), (4, 16)] {
            let mut want = Grid2::new(nx, ny, 1, Boundary::Dirichlet(2.0));
            spec_fill_rows(want.interior_rows_mut(), 3, Uniform::new(0.0, 1.0));
            let mut life = Grid2::new(nx, ny, 1, Boundary::Dirichlet(0));
            spec_fill_rows(life.interior_rows_mut(), 3, Alive(0.35));
            for isa in contexts() {
                let mut got = Grid2::new(nx, ny, 1, Boundary::Dirichlet(2.0));
                isa.fill(got.interior_rows_mut(), 3, Uniform::new(0.0, 1.0));
                assert_eq!(bits(got.data()), bits(want.data()), "{isa:?} {nx}x{ny}");
                got.check_canaries().unwrap();
                let mut got = Grid2::new(nx, ny, 1, Boundary::Dirichlet(0));
                isa.fill(got.interior_rows_mut(), 3, Alive(0.35));
                assert_eq!(got.data(), life.data(), "{isa:?} life {nx}x{ny}");
                got.check_canaries().unwrap();
            }
            let mut got = Grid2::new(nx, ny, 1, Boundary::Dirichlet(2.0));
            crate::fill_random(&mut got, 3, 0.0, 1.0);
            assert_eq!(bits(got.data()), bits(want.data()));
            let mut got = Grid2::new(nx, ny, 1, Boundary::Dirichlet(0));
            crate::fill_random_life(&mut got, 3, 0.35);
            assert_eq!(got.data(), life.data());
        }
        for (nx, ny, nz) in [(3, 4, 5), (2, 3, 17), (5, 1, 1), (2, 2, 16)] {
            let mut want = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(-3.0));
            spec_fill_rows(want.interior_rows_mut(), 11, Uniform::new(-1.0, 1.0));
            for isa in contexts() {
                let mut got = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(-3.0));
                isa.fill(got.interior_rows_mut(), 11, Uniform::new(-1.0, 1.0));
                assert_eq!(
                    bits(got.data()),
                    bits(want.data()),
                    "{isa:?} {nx}x{ny}x{nz}"
                );
                got.check_canaries().unwrap();
            }
            let mut got = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(-3.0));
            crate::fill_random(&mut got, 11, -1.0, 1.0);
            assert_eq!(bits(got.data()), bits(want.data()));
        }
        // Two sequences, one stream.
        let (mut a, mut b) = (vec![0u8; 21], vec![0u8; 40]);
        spec_fill_rows([&mut a[..], &mut b[..]], 5, Symbol(4));
        for isa in contexts() {
            let (mut c, mut d) = (vec![9u8; 21], vec![9u8; 40]);
            isa.fill([&mut c[..], &mut d[..]], 5, Symbol(4));
            assert_eq!((&c, &d), (&a, &b), "{isa:?}");
        }
        assert!(a.iter().chain(&b).all(|&s| s < 4));
    }

    #[test]
    fn fills_leave_halo_and_padding_alone() {
        let mut g = Grid2::new(7, 13, 2, Boundary::Dirichlet(0.25));
        crate::fill_random(&mut g, 1, -1.0, 1.0);
        g.check_canaries().unwrap();
        for x in 0..7 + 4 {
            for y in 0..13 + 4 {
                let halo = !(2..9).contains(&x) || !(2..15).contains(&y);
                assert_eq!(g.get(x, y) == 0.25, halo, "({x}, {y})");
            }
        }
        let mut g = Grid3::new(3, 5, 6, 1, Boundary::Dirichlet(0.25));
        crate::fill_random(&mut g, 1, -1.0, 1.0);
        g.check_canaries().unwrap();
        for x in 0..5 {
            for y in 0..7 {
                for z in 0..8 {
                    let halo = !(1..4).contains(&x) || !(1..6).contains(&y) || !(1..7).contains(&z);
                    assert_eq!(g.get(x, y, z) == 0.25, halo, "({x}, {y}, {z})");
                }
            }
        }
        let mut g = Grid1::new(37, 3, Boundary::Dirichlet(0.25));
        crate::fill_random(&mut g, 1, -1.0, 1.0);
        g.check_canaries().unwrap();
        assert!(g.data()[..3]
            .iter()
            .chain(&g.data()[40..])
            .all(|&v| v == 0.25));
    }

    #[test]
    fn values_stay_in_the_half_open_range() {
        let mut g = Grid1::new(4096, 1, Boundary::Dirichlet(0.0));
        crate::fill_random(&mut g, 9, -1.0, 1.0);
        assert!(g.interior().iter().all(|v| (-1.0..1.0).contains(v)));
        // One ulp wide: the product of every unit value above one half
        // rounds up to `hi`, and the guard returns `lo` instead.
        let (lo, hi) = (1.0, 1.0 + f64::EPSILON);
        assert_eq!(lo + (hi - lo) * unit(u64::MAX), hi);
        crate::fill_random(&mut g, 9, lo, hi);
        assert!(g.interior().iter().all(|&v| v == lo));
        assert_eq!(Uniform::new(lo, hi).draw(u64::MAX), lo);
        assert_eq!(
            Uniform::new(-1.0, 1.0).draw(u64::MAX),
            1.0 - 2.0 * f64::EPSILON
        );
    }

    #[test]
    fn seeds_give_distinct_states() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let mut g = Grid2::new(8, 9, 1, Boundary::Dirichlet(0.0));
            crate::fill_random(&mut g, seed, -1.0, 1.0);
            assert!(seen.insert(bits(g.data())), "seed {seed}");
        }
    }

    #[test]
    fn life_is_alive_at_its_probability() {
        let mut g = Grid2::new(256, 256, 1, Boundary::Dirichlet(0));
        crate::fill_random_life(&mut g, 7, 0.35);
        let cells: Vec<i32> = g.interior_rows_mut().flat_map(|row| row.to_vec()).collect();
        assert!(cells.iter().all(|&c| c == 0 || c == 1));
        let share = cells.iter().sum::<i32>() as f64 / cells.len() as f64;
        assert!((share - 0.35).abs() <= 0.02, "alive share {share}");
    }
}
