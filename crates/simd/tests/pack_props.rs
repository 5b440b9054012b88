//! Property-based tests for the portable pack model.
//!
//! Every lane operation is checked against an independent index-arithmetic
//! model on plain arrays, for both `f64x4` and `i32x8` shapes, so the rest
//! of the workspace can treat `Pack` semantics — and the portable
//! register form `Packs` built on them — as ground truth.

use proptest::prelude::*;
use tempora_simd::{I32Lanes, Lanes, Pack, Packs};

const N4: usize = 4;
const N8: usize = 8;

proptest! {
    #[test]
    fn rotate_up_model_f64(lanes in proptest::array::uniform4(-1e9f64..1e9)) {
        let p = Pack::<f64, N4>(lanes);
        let r = p.rotate_up();
        for j in 0..N4 {
            prop_assert_eq!(r[j], lanes[(j + N4 - 1) % N4]);
        }
    }

    #[test]
    fn rotate_round_trip_i32(lanes in proptest::array::uniform8(any::<i32>())) {
        let p = Pack::<i32, N8>(lanes);
        prop_assert_eq!(p.rotate_up().rotate_down(), p);
        // N rotations are the identity.
        let mut q = p;
        for _ in 0..N8 { q = q.rotate_up(); }
        prop_assert_eq!(q, p);
    }

    #[test]
    fn shift_up_insert_model(lanes in proptest::array::uniform4(any::<i32>()), e in any::<i32>()) {
        let p = Pack::<i32, N4>(lanes);
        let r = p.shift_up_insert(e);
        prop_assert_eq!(r[0], e);
        for j in 1..N4 {
            prop_assert_eq!(r[j], lanes[j - 1]);
        }
        // Equivalent to the paper's two-instruction rotate + blend.
        prop_assert_eq!(r, p.rotate_up().replace(0, e));
    }

    #[test]
    fn align_pair_model(
        a in proptest::array::uniform8(any::<i32>()),
        b in proptest::array::uniform8(any::<i32>()),
        shift in 0usize..=N8,
    ) {
        let pa = Pack::<i32, N8>(a);
        let pb = Pack::<i32, N8>(b);
        let r = Pack::align_pair(pa, pb, shift);
        let concat: Vec<i32> = a.iter().chain(b.iter()).copied().collect();
        for j in 0..N8 {
            prop_assert_eq!(r[j], concat[j + shift]);
        }
    }

    #[test]
    fn gather_scatter_roundtrip(
        vals in proptest::collection::vec(any::<u8>(), 64),
        base in 0usize..8,
        stride in 1isize..7,
    ) {
        // The strided byte load (`vloadset`), its lanes written back to
        // the indices they came from.
        let v: Pack<i32, N8> = Packs.load_u8(&vals, base, stride);
        let mut out = [0u8; 64];
        for i in 0..N8 {
            out[(base as isize + i as isize * stride) as usize] = v[i] as u8;
        }
        for i in 0..N8 {
            let idx = (base as isize + i as isize * stride) as usize;
            prop_assert_eq!(out[idx], vals[idx]);
        }
    }

    #[test]
    fn gather_negative_stride_model(
        vals in proptest::collection::vec(any::<u8>(), 128),
        x in 0usize..16,
        s in 1isize..8,
    ) {
        // The temporal input-vector gather: base = x + (N-1)*s, stride = -s.
        let base = x + (N8 - 1) * s as usize;
        let v: Pack<i32, N8> = Packs.load_u8(&vals, base, -s);
        for i in 0..N8 {
            prop_assert_eq!(v[i], vals[x + (N8 - 1 - i) * s as usize] as i32);
        }
    }

    #[test]
    fn select_is_lane_wise_if(
        a in proptest::array::uniform8(any::<i32>()),
        b in proptest::array::uniform8(any::<i32>()),
        bits in proptest::array::uniform8(any::<bool>()),
    ) {
        let m = Pack(bits.map(|b| -(b as i32)));
        let r = Packs.select_eq(m, Pack([-1; N8]), Pack(a), Pack(b));
        for i in 0..N8 {
            prop_assert_eq!(r[i], if bits[i] { a[i] } else { b[i] });
        }
    }

    #[test]
    fn min_max_select_consistency(
        a in proptest::array::uniform8(any::<i32>()),
        b in proptest::array::uniform8(any::<i32>()),
    ) {
        let (pa, pb) = (Pack::<i32, N8>(a), Pack::<i32, N8>(b));
        let hi = Packs.max(pa, pb);
        for i in 0..N8 {
            prop_assert_eq!(hi[i], a[i].max(b[i]));
        }
        prop_assert_eq!(hi, pa.max(pb));
        prop_assert_eq!(hi, Packs.select_eq(hi, pa, pa, pb));
    }

    #[test]
    fn transpose_is_an_involution(vals in proptest::collection::vec(any::<i32>(), 64)) {
        // Columns assembled bottom-up by the production rule.
        let transpose = |rows: [Pack<i32, N8>; N8]| -> [Pack<i32, N8>; N8] {
            core::array::from_fn(|j| {
                (0..N8).rev().fold(Packs.splat(0), |v, i| Packs.shift_up_insert(v, rows[i][j]))
            })
        };
        let rows: [Pack<i32, N8>; N8] =
            core::array::from_fn(|i| Pack::from_fn(|j| vals[i * N8 + j]));
        let t = transpose(rows);
        for i in 0..N8 {
            for j in 0..N8 {
                prop_assert_eq!(t[i][j], rows[j][i]);
            }
        }
        prop_assert_eq!(transpose(t), rows);
    }

    #[test]
    fn arithmetic_matches_scalar_model(
        a in proptest::array::uniform4(-1e6f64..1e6),
        b in proptest::array::uniform4(-1e6f64..1e6),
        c in proptest::array::uniform4(-1e6f64..1e6),
    ) {
        let (pa, pb, pc) = (Pack::<f64, N4>(a), Pack::<f64, N4>(b), Pack::<f64, N4>(c));
        let r = pa.mul_add(pb, pc);
        for i in 0..N4 {
            prop_assert_eq!(r[i], a[i].mul_add(b[i], c[i]));
        }
        let s = (pa + pb) * pc;
        for i in 0..N4 {
            prop_assert_eq!(s[i], (a[i] + b[i]) * c[i]);
        }
    }
}
