//! # tempora-simd — SIMD substrate for temporal stencil vectorization
//!
//! This crate is the lowest layer of the *tempora* workspace, a from-scratch
//! reproduction of **"Temporal Vectorization for Stencils"** (Yuan, Cao,
//! Zhang, Li, Lu, Yue — SC'21, arXiv:2010.04868). It provides:
//!
//! * [`pack::Pack`] — a portable, 32-byte-aligned, `N`-lane vector type
//!   with exactly the operation vocabulary the paper's algorithms use
//!   (`vloadset` gathers, `vrotate`, `vblend`, aligned loads/stores,
//!   fused multiply-add, compare/select, in-register transpose);
//! * [`count`] — the in-lane / lane-crossing reorganization-instruction
//!   cost model of §3.3, as a thread-local counting session used to verify
//!   the paper's per-output-vector instruction budgets;
//! * [`lanes`] — the lane vocabulary the temporal steady states and the
//!   stencils' vector formulas are written in, once, generic over a
//!   register form: [`Lanes`] (load, store, splat, top lane, the
//!   rotate-and-blend production rule), [`F64Lanes`] and [`I32Lanes`]
//!   (the kernels' arithmetic), and the portable implementor [`Packs`];
//! * [`arch`] — `std::arch` AVX2 implementations of the hot operations,
//!   equivalence-tested against the portable model, and the AVX2
//!   implementor of the vocabulary, the [`arch::Ymm`] availability token.
//!
//! ## Temporal lane convention (paper Figure 1)
//!
//! A temporal **input vector** with space stride `s` packs one value from
//! each of `vl` consecutive time levels, `s` grid points apart (top lane
//! first, as the paper writes them):
//!
//! ```text
//!            lane 3     lane 2      lane 1      lane 0
//!   V(x) = ( a[t+3][x], a[t+2][x+s], a[t+1][x+2s], a[t][x+3s] )
//!
//!   t+4 |        .  o  .  .  .  .  .  .  .          o = O(x) lanes
//!   t+3 |        .  v  .  o  .  .  .  .  .          v = V(x) lanes
//!   t+2 |        .  .  .  v  .  o  .  .  .          (s = 2)
//!   t+1 |        .  .  .  .  .  v  .  o  .
//!   t   |        .  .  .  .  .  .  .  v  .
//!        --------------------------------> x
//! ```
//!
//! One stencil application on `V(x-1), V(x), V(x+1)` produces the **output
//! vector** `O(x) = (a[t+4][x], a[t+3][x+s], a[t+2][x+2s], a[t+1][x+3s])`,
//! advancing *four time levels at once*. `O(x).shift_up_insert(a[t][x+4s])`
//! then yields `V(x+s)` — a single rotate + blend, the paper's constant
//! reorganization cost.
//!
//! Higher layers: `tempora-grid` (containers), `tempora-stencil` (problem
//! definitions + scalar oracles), `tempora-baseline` (spatial schemes),
//! `tempora-core` (the temporal engines), `tempora-tiling`,
//! `tempora-parallel`, `tempora-bench`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
pub mod count;
pub mod lanes;
pub mod pack;

pub use lanes::{F64Lanes, I32Lanes, Lanes, Packs};
pub use pack::{transpose, F32x8, F64x4, I32x8, I64x4, Mask, Pack, Scalar};
