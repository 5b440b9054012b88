//! 64-byte aligned heap buffers.
//!
//! Stencil kernels want their arrays aligned to cache lines (and therefore
//! to every vector width in use). `Vec<T>` gives no alignment guarantee
//! beyond `align_of::<T>()`, so the workspace allocates through
//! [`AlignedBuf`], a minimal owned buffer with a fixed 64-byte alignment,
//! and [`PackBuf`], the same buffer seen as vector packs.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tempora_simd::{Pack, Scalar};

/// Cache-line alignment used for every grid allocation (bytes).
pub const GRID_ALIGN: usize = 64;

/// The panic of a grid or buffer whose size overflows what can be
/// allocated.
pub(crate) const TOO_LARGE: &str = "grid allocation too large";

/// Buffers below this many bytes come out of the allocator's heap rather
/// than a mapping of their own (glibc's initial `M_MMAP_THRESHOLD`).
const HEAP_SERVED: usize = 128 << 10;

/// Process-wide count of non-empty [`AlignedBuf`] allocations.
///
/// Every grid, tile buffer and aligned arena in the workspace allocates
/// through [`AlignedBuf::zeroed`], so the counter is a cheap way to prove
/// a hot path is allocation-free: snapshot it with [`alloc_count`] before
/// and after the path and assert the delta is zero. Monotonic; never
/// decremented on drop.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide [`AlignedBuf`] allocation counter.
///
/// The counter is monotonic, so `alloc_count() - before` is the number of
/// aligned-buffer allocations performed since the `before` snapshot
/// (across all threads).
pub fn alloc_count() -> u64 {
    // Ordering: Relaxed — a monotonic statistics counter; callers compare
    // snapshots taken on one thread, no cross-thread data is published.
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// True when some run of `f` performed no [`AlignedBuf`] allocation: how
/// the suites prove a warmed-up path allocation-free. The counter is
/// process-wide and sibling tests allocate concurrently, so one dirty
/// window proves nothing; `f` is re-run, backing off between attempts so
/// a burst of siblings can pass, for about two seconds. A path that really
/// allocates dirties every window and the answer is `false`.
pub fn runs_allocation_free(mut f: impl FnMut()) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut pause = Duration::from_millis(1);
    loop {
        let before = alloc_count();
        f();
        if alloc_count() == before {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(pause);
        pause = (2 * pause).min(Duration::from_millis(64));
    }
}

/// An owned, fixed-length, 64-byte aligned buffer of `T`.
///
/// Dereferences to `[T]`; all element access goes through ordinary slices,
/// so the only `unsafe` in this type is the allocation itself.
pub struct AlignedBuf<T: Scalar> {
    /// The allocation `ptr` was aligned within.
    base: *mut u8,
    ptr: *mut T,
    len: usize,
}

// SAFETY: AlignedBuf owns its allocation exclusively; T: Scalar is
// Send + Sync plain data.
unsafe impl<T: Scalar> Send for AlignedBuf<T> {}
// SAFETY: shared access is only through &[T].
unsafe impl<T: Scalar> Sync for AlignedBuf<T> {}

impl<T: Scalar> AlignedBuf<T> {
    /// Allocate `len` elements, zero-initialized (then overwritten with
    /// `T::ZERO`, which for every supported `T` is the all-zeroes pattern).
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf {
                base: core::ptr::null_mut(),
                ptr: core::ptr::NonNull::<T>::dangling().as_ptr(),
                len: 0,
            };
        }
        // Every real grid/arena allocation in the workspace funnels
        // through here, so this one site lets tests inject allocation
        // failures anywhere (the k-th hit is as deterministic as the
        // ALLOC_COUNT the allocation-free tests rely on).
        tempora_failpoint::failpoint!("arena_alloc");
        // Ordering: Relaxed — a monotonic statistics counter; the count is
        // the only shared state and no other memory rides on this edge.
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0) and valid alignment.
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        // The first GRID_ALIGN boundary at or after `base`.
        let ptr = base.wrapping_add((base as usize).wrapping_neg() % GRID_ALIGN) as *mut T;
        // SAFETY: `ptr` is `base` when the layout asked the allocator for
        // the alignment, and otherwise less than GRID_ALIGN bytes into a
        // layout that holds GRID_ALIGN bytes more than the `len` elements.
        unsafe { ptr.write_bytes(0, len) };
        AlignedBuf { base, ptr, len }
    }

    /// Allocate `len` elements, all set to `fill`.
    pub fn filled(len: usize, fill: T) -> Self {
        let mut b = Self::zeroed(len);
        for v in b.iter_mut() {
            *v = fill;
        }
        b
    }

    fn layout(len: usize) -> Layout {
        // Panic-justification: as below, a byte size overflowing `usize`
        // cannot be allocated.
        let bytes = len.checked_mul(core::mem::size_of::<T>()).expect(TOO_LARGE);
        // A buffer small enough for the allocator's heap is aligned by
        // hand inside an ordinary allocation with room to reach the next
        // boundary: glibc's `posix_memalign` (2.36) cannot give a freed
        // buffer's hole to the next buffer of the same size, so a server
        // that allocates, runs and frees one state per request pinned
        // several buffers' worth of heap for every one in use. Larger
        // buffers get a mapping of their own and leave no holes.
        let (bytes, align) = if bytes < HEAP_SERVED {
            (bytes + GRID_ALIGN, core::mem::align_of::<T>())
        } else {
            (bytes, GRID_ALIGN)
        };
        // Panic-justification: a byte size overflowing isize::MAX cannot
        // be allocated on any supported target; there is no fallible
        // grid-construction API to surface it through, and real callers
        // run out of memory (handle_alloc_error) long before this bound.
        Layout::from_size_align(bytes, align).expect(TOO_LARGE)
    }

    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Scalar> Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Scalar> DerefMut for AlignedBuf<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements and we hold &mut self.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<T: Scalar> Drop for AlignedBuf<T> {
    // Inline: dropping an empty buffer — what a detached slab leaves
    // behind — is then one test in the caller's loop, not a call.
    #[inline]
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: allocated in `zeroed` with the identical layout.
            unsafe { dealloc(self.base, Self::layout(self.len)) };
        }
    }
}

impl<T: Scalar> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        let mut b = Self::zeroed(self.len);
        b.copy_from_slice(self);
        b
    }
}

impl<T: Scalar> core::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

/// An owned, fixed-length buffer of `N`-lane packs on a 64-byte boundary:
/// an [`AlignedBuf`] of `N·len` scalars seen as packs, so that a 64-byte
/// pack never straddles two cache lines (a `Vec` of packs is aligned to
/// the pack's 32 bytes only). Dereferences to `[Pack<T, N>]`; the empty
/// buffer ([`Default`]) allocates nothing.
///
/// Only widths whose lanes fill their pack exactly can be seen this way
/// (`f64 × 4`, `f64 × 8`, `i32 × 8`, …): a padded pack does not compile.
pub struct PackBuf<T: Scalar, const N: usize>(AlignedBuf<T>);

impl<T: Scalar, const N: usize> PackBuf<T, N> {
    /// The pack is its `N` lanes and nothing else.
    const UNPADDED: () =
        assert!(core::mem::size_of::<Pack<T, N>>() == N * core::mem::size_of::<T>());

    /// Allocate `len` packs of zeros (`T::ZERO`, the all-zeroes pattern, in
    /// every lane).
    pub fn zeroed(len: usize) -> Self {
        let () = Self::UNPADDED;
        // Panic-justification: a buffer whose scalar count overflows
        // `usize` could never be allocated; `AlignedBuf` fails the same
        // way on a byte size past `isize::MAX`.
        let scalars = len.checked_mul(N).expect("pack buffer too large");
        PackBuf(AlignedBuf::zeroed(scalars))
    }
}

impl<T: Scalar, const N: usize> Default for PackBuf<T, N> {
    fn default() -> Self {
        PackBuf(AlignedBuf::zeroed(0))
    }
}

impl<T: Scalar, const N: usize> Deref for PackBuf<T, N> {
    type Target = [Pack<T, N>];
    #[inline(always)]
    fn deref(&self) -> &[Pack<T, N>] {
        if self.0.is_empty() {
            return &[];
        }
        // SAFETY: the scalars start on a GRID_ALIGN boundary, which is a
        // multiple of the pack's alignment, and hold `len / N` whole packs;
        // a pack is `repr(C)` over `[T; N]` with no padding (`UNPADDED`,
        // checked in `zeroed`, the only constructor of a non-empty buffer)
        // and every bit pattern of `T` is a valid lane.
        unsafe { core::slice::from_raw_parts(self.0.as_ptr().cast(), self.0.len() / N) }
    }
}

impl<T: Scalar, const N: usize> DerefMut for PackBuf<T, N> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [Pack<T, N>] {
        if self.0.is_empty() {
            return &mut [];
        }
        // SAFETY: as for `deref`, through the `&mut self` that owns them.
        unsafe { core::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), self.0.len() / N) }
    }
}

impl<T: Scalar, const N: usize> core::fmt::Debug for PackBuf<T, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PackBuf(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_zeroing() {
        // Both sides of HEAP_SERVED.
        for len in [1usize, 3, 64, 1000, 4097, 16383, 16384, 20_000] {
            // A buffer that takes over a freed one's memory is zeroed too.
            drop(AlignedBuf::<f64>::filled(len, 7.0));
            let b = AlignedBuf::<f64>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % GRID_ALIGN, 0);
            assert_eq!(b.len(), len);
            assert!(b.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn filled_and_clone() {
        let b = AlignedBuf::<i32>::filled(100, 7);
        assert!(b.iter().all(|&v| v == 7));
        let mut c = b.clone();
        c[0] = 1;
        assert_eq!(b[0], 7);
        assert_eq!(c[0], 1);
        assert_eq!(c.as_ptr() as usize % GRID_ALIGN, 0);
    }

    #[test]
    fn zero_length_is_fine() {
        let b = AlignedBuf::<f64>::zeroed(0);
        assert!(b.is_empty());
        let c = b.clone();
        assert!(c.is_empty());
    }

    #[test]
    fn alloc_counter_tracks_nonempty_allocations() {
        // The counter is process-global and sibling tests allocate
        // concurrently, so assert a lower bound: our three allocations
        // must all have been counted.
        let before = alloc_count();
        let _a = AlignedBuf::<f64>::zeroed(8);
        let _b = AlignedBuf::<i32>::filled(5, 1);
        let _c = _a.clone();
        assert!(alloc_count() - before >= 3);
    }

    #[test]
    fn pack_buffers_start_on_a_cache_line() {
        // Both sides of HEAP_SERVED, at both `f64` widths and Life's.
        for len in [1usize, 10, 1000, 6724] {
            // A buffer that takes over a freed one's memory is zeroed too.
            drop(AlignedBuf::<f64>::filled(8 * len, 7.0));
            let narrow = PackBuf::<f64, 4>::zeroed(len);
            let mut wide = PackBuf::<f64, 8>::zeroed(len);
            let life = PackBuf::<i32, 8>::zeroed(len);
            assert_eq!(narrow.as_ptr() as usize % GRID_ALIGN, 0, "{len}");
            assert_eq!(wide.as_ptr() as usize % GRID_ALIGN, 0, "{len}");
            assert_eq!(life.as_ptr() as usize % GRID_ALIGN, 0, "{len}");
            assert_eq!((narrow.len(), wide.len(), life.len()), (len, len, len));
            assert!(wide.iter().all(|p| *p == Pack::splat(0.0)));
            wide[len - 1] = Pack::splat(-2.0);
            assert_eq!(wide.last(), Some(&Pack::splat(-2.0)));
        }
        let mut empty = PackBuf::<f64, 8>::default();
        assert!(empty.is_empty() && empty.iter_mut().next().is_none());
    }

    #[test]
    fn mutation_via_slice() {
        let mut b = AlignedBuf::<f64>::zeroed(16);
        for (i, v) in b.iter_mut().enumerate() {
            *v = i as f64;
        }
        assert_eq!(b[15], 15.0);
    }
}
