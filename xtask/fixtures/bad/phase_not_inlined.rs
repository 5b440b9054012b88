//! Fixture: a phase function that lost its `#[inline(always)]`.

/// Phase 1, correctly attributed (a longer name sharing a prefix with a
/// phase function, `tile_prologue_len`, would not be checked).
#[inline(always)]
pub fn tile_prologue<const VL: usize>(n: usize) -> usize {
    n + 1 - VL
}

/// Phase 3: `#[inline]` is a hint, not a guarantee.
#[inline]
pub fn tile_epilogue(n: usize) -> usize {
    n
}

/// Not a phase function.
pub fn tile_epilogue_len(n: usize) -> usize {
    n
}
