//! Longest common subsequence as a 1-D Gauss-Seidel stencil (§3.4).
//!
//! `lcs[x][y]` — the LCS length of prefixes `A[1..=x]`, `B[1..=y]` —
//! depends on `lcs[x-1][y]`, `lcs[x-1][y-1]` and `lcs[x][y-1]`. Viewing
//! the `x` loop as *time* and `y` as *space* turns the DP table into a 1-D
//! stencil whose only same-time dependence is the west neighbour: a
//! Gauss-Seidel shape with minimum temporal stride `s ≥ 1` (the paper's
//! observation). Sequence `A` acts as a per-time-level constant and `B` as
//! a variable per-space coefficient.
//!
//! Values are `i32`. The vector kernels use 8 lanes — the paper's
//! "theoretical maximal speedup of 8" for integer SIMD — or 16 where the
//! CPU has AVX-512F (`tempora_core::lcs`); the update is one formula at
//! either width.

use crate::deps::{Dep, DepSet};
use tempora_simd::I32Lanes;

/// Dependence set of LCS projected on `(t = x, space = y)`.
pub fn lcs_deps() -> DepSet {
    DepSet::new(
        "lcs",
        vec![Dep::new(1, 0), Dep::new(1, -1), Dep::new(0, -1)],
    )
}

/// Scalar LCS cell update:
/// `if a == b { diag + 1 } else { max(up, left) }`.
///
/// `up` is `lcs[x-1][y]` (old value, same column), `left` is
/// `lcs[x][y-1]` (newest, same row), `diag` is `lcs[x-1][y-1]`.
#[inline(always)]
pub fn lcs_update(diag: i32, up: i32, left: i32, a: u8, b: u8) -> i32 {
    if a == b {
        diag + 1
    } else {
        up.max(left)
    }
}

/// Vector LCS cell update in `isa`'s registers with identical semantics,
/// branch-free: the paper's "blend instruction with a mask vector of
/// equalities". `a` and `b` hold the lanes' sequence characters.
#[inline(always)]
pub fn lcs_update_pack<const N: usize, L: I32Lanes<N>>(
    isa: L,
    diag: L::V,
    up: L::V,
    left: L::V,
    a: L::V,
    b: L::V,
) -> L::V {
    isa.select_eq(a, b, isa.add(diag, isa.splat(1)), isa.max(up, left))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::validate_schedule;
    use tempora_simd::{I32x8, Packs};

    #[test]
    fn deps_allow_stride_one() {
        let d = lcs_deps();
        assert!(d.is_gauss_seidel());
        assert_eq!(d.min_stride(), 1);
        for s in 1..=4 {
            validate_schedule(&d, 8, s, 50).unwrap();
        }
    }

    #[test]
    fn scalar_update_cases() {
        assert_eq!(lcs_update(3, 5, 4, b'a', b'a'), 4); // match: diag + 1
        assert_eq!(lcs_update(3, 5, 4, b'a', b'b'), 5); // mismatch: max
        assert_eq!(lcs_update(0, 0, 0, b'x', b'x'), 1);
    }

    #[test]
    fn pack_matches_scalar() {
        let diag = I32x8::from_fn(|i| i as i32);
        let up = I32x8::from_fn(|i| (7 - i) as i32);
        let left = I32x8::from_fn(|i| ((i * 3) % 5) as i32);
        let a: [u8; 8] = [0, 1, 2, 3, 0, 1, 2, 3];
        let b: [u8; 8] = [0, 2, 2, 1, 3, 1, 0, 3];
        let (av, bv) = (
            I32x8::from_fn(|i| a[i] as i32),
            I32x8::from_fn(|i| b[i] as i32),
        );
        let p = lcs_update_pack(Packs, diag, up, left, av, bv);
        for i in 0..8 {
            assert_eq!(
                p.extract(i),
                lcs_update(diag.extract(i), up.extract(i), left.extract(i), a[i], b[i])
            );
        }
    }
}
