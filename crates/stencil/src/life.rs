//! Conway-style Game of Life as an integer 2D9P box stencil.
//!
//! The paper evaluates the Pluto benchmark variant **B2S23** (a cell is
//! *born* when it has exactly 2 live neighbours and *survives* with 2 or
//! 3); cells are stored as `i32` 0/1 "like other works to facilitate the
//! summation of values of 8 neighbors" (§3.4). The rule is kept fully
//! general (any B/S bitmask) so classic Conway B3S23 is available too.

use crate::deps::{Dep, DepSet};
use tempora_simd::I32Lanes;

/// A Life rule given as birth/survival neighbour-count bitmasks
/// (bit `c` set ⇔ the transition applies at neighbour count `c`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LifeRule {
    /// Birth mask: dead cell becomes alive when bit `count` is set.
    pub birth: u16,
    /// Survival mask: live cell stays alive when bit `count` is set.
    pub survive: u16,
}

impl LifeRule {
    /// The paper's / Pluto's B2S23 variant.
    pub const fn b2s23() -> Self {
        LifeRule {
            birth: 1 << 2,
            survive: (1 << 2) | (1 << 3),
        }
    }

    /// Classic Conway B3S23.
    pub const fn conway() -> Self {
        LifeRule {
            birth: 1 << 3,
            survive: (1 << 2) | (1 << 3),
        }
    }

    /// Dependence set projected on `(t, x_outer)` — a box stencil, same
    /// projection as 2D9P.
    pub fn deps() -> DepSet {
        DepSet::new(
            "life",
            vec![Dep::new(1, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar transition: `cur ∈ {0,1}`, `sum` = number of live neighbours.
    #[inline(always)]
    pub fn apply(&self, cur: i32, sum: i32) -> i32 {
        debug_assert!((0..=8).contains(&sum), "neighbour sum out of range");
        let mask = if cur == 0 { self.birth } else { self.survive };
        ((mask >> sum) & 1) as i32
    }

    /// Vector transition in `isa`'s registers with the identical
    /// semantics, branch-free: the applicable rule mask per lane is
    /// selected arithmetically (cells are 0/1 by the Life invariant),
    /// `birth + cur·(survive - birth)`, and tested with the same variable
    /// shift as the scalar rule, `(mask >> sum) & 1`.
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: I32Lanes<N>>(&self, isa: L, cur: L::V, sum: L::V) -> L::V {
        debug_assert!(isa.store(cur).0.iter().all(|&c| c == 0 || c == 1));
        let birth = isa.splat(self.birth as i32);
        let delta = isa.splat(self.survive as i32 - self.birth as i32);
        let mask = isa.add(birth, isa.mullo(cur, delta));
        isa.and(isa.srav(mask, sum), isa.splat(1))
    }

    /// Scalar 3×3 neighbourhood update (`v[di+1][dj+1] = a[x+di][y+dj]`):
    /// sums the eight neighbours and applies the transition to the centre.
    #[inline(always)]
    pub fn apply_neighborhood(&self, v: [[i32; 3]; 3]) -> i32 {
        let sum = v[0][0] + v[0][1] + v[0][2] + v[1][0] + v[1][2] + v[2][0] + v[2][1] + v[2][2];
        self.apply(v[1][1], sum)
    }

    /// Vector 3×3 neighbourhood update, lane-wise identical to
    /// [`LifeRule::apply_neighborhood`]: wrapping adds are associative, so
    /// the eight neighbours are summed as a tree.
    #[inline(always)]
    pub fn apply_neighborhood_pack<const N: usize, L: I32Lanes<N>>(
        &self,
        isa: L,
        v: [[L::V; 3]; 3],
    ) -> L::V {
        let [[nw, n, ne], [w, m, e], [sw, s, se]] = v;
        let sum = isa.add(
            isa.add(isa.add(nw, n), isa.add(ne, sw)),
            isa.add(isa.add(s, se), isa.add(w, e)),
        );
        self.apply_pack(isa, m, sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_simd::{I32x8, Packs};

    #[test]
    fn b2s23_truth_table() {
        let r = LifeRule::b2s23();
        // Dead cell: born only with exactly 2 neighbours.
        for sum in 0..=8 {
            assert_eq!(r.apply(0, sum), i32::from(sum == 2), "dead, sum={sum}");
        }
        // Live cell: survives with 2 or 3.
        for sum in 0..=8 {
            assert_eq!(
                r.apply(1, sum),
                i32::from(sum == 2 || sum == 3),
                "live, sum={sum}"
            );
        }
    }

    #[test]
    fn conway_truth_table() {
        let r = LifeRule::conway();
        for sum in 0..=8 {
            assert_eq!(r.apply(0, sum), i32::from(sum == 3));
            assert_eq!(r.apply(1, sum), i32::from(sum == 2 || sum == 3));
        }
    }

    #[test]
    fn pack_matches_scalar_exhaustively() {
        for rule in [LifeRule::b2s23(), LifeRule::conway()] {
            // All (cur, sum) pairs across lanes.
            for base in 0..3 {
                let cur = I32x8::from_fn(|i| ((i + base) % 2) as i32);
                let sum = I32x8::from_fn(|i| (i % 9) as i32);
                let p = rule.apply_pack(Packs, cur, sum);
                for i in 0..8 {
                    assert_eq!(p.extract(i), rule.apply(cur.extract(i), sum.extract(i)));
                }
            }
        }
    }

    #[test]
    fn neighborhood_matches_manual_sum() {
        let r = LifeRule::b2s23();
        let v = [[1, 0, 1], [0, 1, 0], [0, 0, 0]];
        // sum = 2, live centre -> survives.
        assert_eq!(r.apply_neighborhood(v), 1);
        let v2 = [[1, 1, 1], [0, 1, 0], [0, 0, 0]];
        // sum = 3, live centre -> survives under S23.
        assert_eq!(r.apply_neighborhood(v2), 1);
        let v3 = [[1, 1, 1], [1, 1, 0], [0, 0, 0]];
        // sum = 4 -> dies.
        assert_eq!(r.apply_neighborhood(v3), 0);
    }

    #[test]
    fn neighborhood_pack_matches_scalar() {
        let r = LifeRule::b2s23();
        let v: [[I32x8; 3]; 3] = core::array::from_fn(|i| {
            core::array::from_fn(|j| I32x8::from_fn(|k| ((i * 5 + j * 3 + k) % 2) as i32))
        });
        let p = r.apply_neighborhood_pack(Packs, v);
        for k in 0..8 {
            let s: [[i32; 3]; 3] =
                core::array::from_fn(|i| core::array::from_fn(|j| v[i][j].extract(k)));
            assert_eq!(p.extract(k), r.apply_neighborhood(s));
        }
    }

    #[test]
    fn deps_shape() {
        assert_eq!(LifeRule::deps().min_stride(), 2);
        assert!(!LifeRule::deps().is_gauss_seidel());
    }
}
