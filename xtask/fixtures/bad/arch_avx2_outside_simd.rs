//! Fixture: an engine reaching past the lane vocabulary for the raw AVX2
//! calls — how a per-engine steady state grows back.

/// A path import of the module.
use tempora_simd::arch::avx2;
/// A braced import of the module next to the allowed names.
use tempora_simd::arch::{avx2, avx2_available, Ymm};

/// A call by path; the capability probe and the token are fine.
pub fn body(a: f64) -> f64 {
    assert!(tempora_simd::arch::avx2_available());
    let _ = tempora_simd::arch::Ymm::detect();
    // SAFETY: availability asserted above.
    let v = unsafe { tempora_simd::arch::avx2::extract_top(avx2::splat(a)) };
    v
}
