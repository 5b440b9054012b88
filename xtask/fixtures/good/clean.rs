//! Fixture: satisfies every `cargo xtask audit` rule.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Event counter.
pub static N: AtomicUsize = AtomicUsize::new(0);

/// Bump the event counter.
pub fn bump() {
    // Ordering: Relaxed — a monotonic statistics counter; no other
    // memory rides on this edge.
    N.fetch_add(1, Ordering::Relaxed);
}

/// Increment through a raw pointer.
///
/// # Safety
///
/// `p` must be valid for reads and writes of a `u32`.
pub unsafe fn incr(p: *mut u32) {
    // SAFETY: caller contract — `p` is valid for reads and writes.
    unsafe { *p += 1 };
}

/// Demo kernel dispatched behind the capability probe.
///
/// # Safety
///
/// Caller must have verified `avx2_available()` before dispatching here
/// (engine::Select does).
#[target_feature(enable = "avx2")]
pub unsafe fn fast() {}

/// A phase function (checked under `crates/core/src`): one source,
/// instantiated in each caller's codegen context.
#[inline(always)]
pub fn tile_prologue(n: usize) -> usize {
    n + 1
}

/// A trait may declare a phase function without the attribute (a
/// prototype has no body to inline); each impl carries it.
pub trait Rows {
    /// Declared here, defined by the impl below.
    fn sweep_row(
        &self,
        n: usize,
    ) -> usize;
}

impl Rows for u8 {
    #[inline(always)]
    fn sweep_row(&self, n: usize) -> usize {
        n
    }
}

// Justification: demo helper reached only from doctests.
#[allow(dead_code)]
fn helper() {}

/// Panicking calls with their reasons on record.
pub fn justified(v: Option<u32>) -> u32 {
    // Panic-justification: `v` is produced by a constructor that never
    // returns None for the inputs this demo accepts.
    let a = v.unwrap();
    let b = v.expect("present"); // Panic-justification: same invariant.
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exempt_in_tests() {
        N.store(0, Ordering::Relaxed);
        let x = 1u32;
        let p = &x as *const u32;
        unsafe { assert_eq!(*p, 1) };
        assert_eq!(justified(Some(1)), Some(1).unwrap() * 2);
    }
}
