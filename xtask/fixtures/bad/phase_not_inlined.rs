//! Fixture: a phase function that lost its `#[inline(always)]`.

/// The ring fill, correctly attributed (a longer name sharing a prefix
/// with a phase function, `fill_front_len`, would not be checked).
#[inline(always)]
pub fn fill_front<const VL: usize>(n: usize) -> usize {
    n + 1 - VL
}

/// A masked end: `#[inline]` is a hint, not a guarantee.
#[inline]
pub fn masked_slabs(n: usize) -> usize {
    n
}

/// Not a phase function.
pub fn masked_slabs_len(n: usize) -> usize {
    n
}

/// A vocabulary macro (`crates/simd/src/arch.rs`) whose methods lost the
/// attribute: every method it generates is a call, not an instruction.
macro_rules! lane_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty = $body:expr;)*) => {$(
        #[inline]
        fn $name(self, $($arg: $ty),*) -> $ret {
            $body
        }
    )*};
}
