//! In-place pipelined sweeps: the one executor of the grid kernels,
//! Jacobi and Gauss-Seidel, in every dimension — tiled or not. An untiled
//! plan is the one-chunk schedule (`block = nx`) on a one-thread pool,
//! where [`Pool::waves`] is a plain row-major loop: the sweeps of the
//! sequential engine, one after the other.
//!
//! The paper's scheme "keeps the working state in a single array", and the
//! steady state of one temporal sweep already walks a parallelogram of
//! slope `-s` through `(x, t)`: at anchor `x` it stores level `t + VL`
//! into slab `x` and loads level `t` from slab `x + VL·s`. Cut the anchors
//! of a sweep into **chunks** and consecutive chunks *are* the §3.4
//! parallelogram tiles; start the next sweep on chunk `c` as soon as this
//! sweep has finished chunk `c + 1` and the two chase each other through
//! the same array `VL·s` slabs apart — the pipelined temporal blocking of
//! Wittmann, Hager and Wellein (PAPERS.md). No tile buffers, no copy-in or
//! write-back, no redundant halo compute, no per-tile scalar prologue:
//! tiling costs the wavefront's bookkeeping and nothing else, and a
//! second worker is pure gain.
//!
//! # The schedule
//!
//! [`Sweeps::advance`] is **one** [`Pool::waves`] region over a grid of
//! `sweeps × chunks` tasks; task `(p, c)` runs chunk `c` of sweep `p`
//! directly on the caller's grid through
//! [`KernelSpace`]'s part primitives, which keep everything a sweep has in
//! flight between two of its chunks in the scratch slot of the sweep.
//!
//! * [`Mode::Temporal`]: `steps / VL` vector sweeps followed by
//!   `steps % VL` scalar sweeps — rows of the same grid, not a remainder
//!   loop on the dispatching thread. A grid below `VL·s` slabs runs every
//!   level as a scalar sweep.
//! * [`Mode::Scalar`]: `steps` scalar sweeps.
//! * [`Mode::Auto`]: `steps` multi-load sweeps ping-ponging the grid and
//!   one workspace-owned twin (copied back once if the result ends there).
//!
//! With `x_max` the anchors of a sweep (`nx + 1 - VL·s` when vector
//! sweeps run, `nx` otherwise), a sweep is cut every
//! `chunk = max(block, VL·s, 2)` anchors; chunk 0 also runs the prologue
//! and the last chunk the epilogue (for a scalar sweep: the slabs up to
//! `nx`).
//!
//! # Why it is race-free (the hazard argument)
//!
//! Task `(p, c)` over the anchors `[x0, x1]` is handed one contiguous
//! window of slabs and nothing else: `[x0, x1 + VL·s]` for a vector sweep
//! — it *writes* the top lanes into `[x0, x1]` and *reads* the bottom
//! lanes from `(x1, x1 + VL·s]`; chunk 0 reaches back to ghost slab 0, the
//! last chunk on to `nx + 1` — and `[x0 - 1, x1 + 1]` for a scalar or
//! multi-load sweep. [`Pool::waves`] runs `(p, c)` after `(p, c-1)`,
//! `(p-1, c)` and `(p-1, c+1)`:
//!
//! * **read after write** — what `(p, c)` reads must be the output of
//!   sweep `p-1`: its window ends inside chunk `c+1` because
//!   `chunk ≥ VL·s`, and `(p-1, c+1)` (with its epilogue, if last) has
//!   completed;
//! * **write after read** — a sweep only ever reads *ahead* of where it
//!   writes, so everything `(p, c)` overwrites was consumed by sweep `p-1`
//!   before `(p-1, c+1)` completed;
//! * **concurrency** — tasks the pool may run side by side are at sweep
//!   distance ≥ 1 and chunk distance ≥ 2, so a whole chunk of at least
//!   `max(VL·s, 2)` slabs lies between their windows;
//! * **scratch** — sweep `p` uses slot `p % slots`, `slots = min(sweeps,
//!   chunks)`: the chain `(p, 0) ← (p-1, 1) ← … ← (p-(chunks-1),
//!   chunks-1)` shows that sweep `p` cannot start before sweep
//!   `p - chunks + 1` has drained, so the sweep whose slot it takes over
//!   is long finished.
//!
//! Under `cfg(any(test, debug_assertions))` every task registers its
//! window in a workspace-owned table and panics if it meets the window of
//! a task in flight, or a slab whose producer or last reader has not
//! completed — a schedule bug fails loudly instead of depending on a lost
//! race to show.
//!
//! # Engine dispatch
//!
//! A temporal workspace resolves its [`Select`] **once**, by capability
//! ([`KernelSpace::resolve`]: the kernel's AVX2 sweep at this stride and
//! the CPU's features) — chunking does not change which code runs, so a
//! narrow `block` forces nothing onto the scalar schedule — and reports
//! the resolved [`Engine`]. That engine is the
//! codegen context of everything a task executes; the scalar and
//! multi-load modes report no engine but still follow the selection for
//! theirs (`sel.resolve(true)`), so no sweep runs its `mul_add`s through
//! libm `fma` calls when AVX2+FMA code was allowed.

use core::ops::RangeInclusive;
use tempora_core::engine::{Elem, Engine, KernelSpace, Select};
use tempora_grid::{Boundary, SlabGrid, Slabs, SlabsMut};
use tempora_parallel::{Pool, SyncSlice};

/// Which kernel advances the grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Scalar in-place sweeps (the paper's "scalar" parallel curves).
    Scalar,
    /// Spatial multi-load vectorization (the paper's "auto" curves);
    /// Jacobi kernels only.
    Auto,
    /// Temporal vectorization with the given space stride (the paper's
    /// "our" curves); the concrete steady state — portable or AVX2 — is
    /// resolved from the workspace's [`Select`].
    Temporal(usize),
}

/// How one sweep — one row of the task grid — advances the grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SweepKind {
    /// `VL` levels, temporally vectorized.
    Vector,
    /// One level, scalar, in place.
    Scalar,
    /// One level, multi-load, from one of {grid, twin} into the other.
    Multiload,
}

/// A run of outer slabs `lo ..= hi` of the grid (`buf` 0) or the twin
/// (`buf` 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Span {
    buf: usize,
    lo: usize,
    hi: usize,
}

/// One task: chunk `c` of sweep `p`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Part {
    kind: SweepKind,
    /// The anchors (vector) or slabs (scalar, multi-load) it advances.
    xs: RangeInclusive<usize>,
    /// The window it is handed exclusively: everything it writes, and for
    /// the in-place sweeps everything it reads.
    own: Span,
    /// The window it only reads: the source of a multi-load sweep.
    view: Option<Span>,
}

/// The task grid of one `advance`: `sweeps` rows of `chunks` parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Schedule {
    nx: usize,
    /// Slabs a vector sweep reads ahead of the anchor it writes, `VL·s`;
    /// 0 when the mode or the grid has no vector sweeps.
    reach: usize,
    /// Anchors per sweep.
    x_max: usize,
    /// Anchors per chunk.
    chunk: usize,
    chunks: usize,
    /// The leading vector sweeps …
    vector: usize,
    /// … of `sweeps` in all; the others are `rest`.
    sweeps: usize,
    rest: SweepKind,
    /// Scratch slots: sweep `p` runs in slot `p % slots`.
    slots: usize,
}

impl Schedule {
    fn new<K: KernelSpace>(nx: usize, steps: usize, block: usize, mode: Mode) -> Self {
        let stride_reach = match mode {
            Mode::Temporal(s) => K::VL * s,
            _ => 0,
        };
        // A grid below VL·s slabs cannot host the vector schedule.
        let reach = if nx >= stride_reach { stride_reach } else { 0 };
        let (vector, rest) = match mode {
            Mode::Temporal(_) if reach > 0 => (steps / K::VL, SweepKind::Scalar),
            Mode::Auto => (0, SweepKind::Multiload),
            _ => (0, SweepKind::Scalar),
        };
        let sweeps = vector + steps - vector * K::VL;
        let x_max = if reach > 0 { nx + 1 - reach } else { nx };
        // At least VL·s: a vector part reads that far past its last
        // anchor, and must stay within the next chunk. At least 2: the
        // one-slab halos of parts two chunks apart must not meet.
        let chunk = block.max(stride_reach).max(2);
        let chunks = x_max.div_ceil(chunk);
        Schedule {
            nx,
            reach,
            x_max,
            chunk,
            chunks,
            vector,
            sweeps,
            rest,
            slots: sweeps.min(chunks),
        }
    }

    fn part(&self, p: usize, c: usize) -> Part {
        let kind = if p < self.vector {
            SweepKind::Vector
        } else {
            self.rest
        };
        let last = c + 1 == self.chunks;
        let x0 = c * self.chunk + 1;
        let x1 = match (last, kind) {
            (false, _) => (c + 1) * self.chunk,
            (true, SweepKind::Vector) => self.x_max,
            (true, _) => self.nx,
        };
        let (own, view) = match kind {
            SweepKind::Vector => {
                let lo = if c == 0 { 0 } else { x0 };
                let hi = if last { self.nx + 1 } else { x1 + self.reach };
                (Span { buf: 0, lo, hi }, None)
            }
            SweepKind::Scalar => {
                let (lo, hi) = (x0 - 1, x1 + 1);
                (Span { buf: 0, lo, hi }, None)
            }
            // Sweep p reads buffer p % 2 and writes the other.
            SweepKind::Multiload => (
                Span {
                    buf: 1 - p % 2,
                    lo: x0,
                    hi: x1,
                },
                Some(Span {
                    buf: p % 2,
                    lo: x0 - 1,
                    hi: x1 + 1,
                }),
            ),
        };
        Part {
            kind,
            xs: x0..=x1,
            own,
            view,
        }
    }
}

/// What the chunks of one sweep hand each other.
struct Slot<K: KernelSpace> {
    /// In-flight state of a vector sweep.
    sc: Option<K::Scratch>,
    /// Saved old values of a scalar sweep.
    bufs: Option<K::StepBufs>,
}

impl<K: KernelSpace> Slot<K> {
    fn new(dims: [usize; 3], sched: &Schedule, mode: Mode) -> Self {
        let scalar = sched.rest == SweepKind::Scalar && sched.sweeps > sched.vector;
        Slot {
            sc: match mode {
                Mode::Temporal(s) if sched.vector > 0 => Some(K::scratch(dims, s)),
                _ => None,
            },
            bufs: scalar.then(|| K::step_bufs(dims)),
        }
    }
}

/// The window table of the hazard checker (see the module docs): compiled
/// into test and debug builds only.
#[cfg(any(test, debug_assertions))]
mod hazards {
    use super::{Part, Schedule, Span};
    use std::sync::{Mutex, PoisonError};

    impl Span {
        fn meets(self, other: Span) -> bool {
            self.buf == other.buf && self.lo <= other.hi && other.lo <= self.hi
        }
    }

    impl Part {
        /// True when one of the two parts writes slabs the other is
        /// handed.
        pub(super) fn conflicts(&self, other: &Part) -> bool {
            self.own.meets(other.own)
                || self.view.is_some_and(|v| v.meets(other.own))
                || other.view.is_some_and(|v| v.meets(self.own))
        }
    }

    struct Table {
        /// The tasks in flight, with the windows they were handed.
        inflight: Vec<((usize, usize), Part)>,
        /// `done[p · chunks + c]`: task `(p, c)` ran to completion.
        done: Vec<bool>,
    }

    pub(super) struct Hazards(Mutex<Table>);

    /// Registration of one running task; completes it when dropped.
    pub(super) struct Running<'a> {
        table: &'a Hazards,
        at: (usize, usize),
        slot: usize,
    }

    impl Hazards {
        pub(super) fn new(sched: &Schedule) -> Self {
            Hazards(Mutex::new(Table {
                inflight: Vec::with_capacity(sched.chunks),
                done: vec![false; sched.sweeps * sched.chunks],
            }))
        }

        fn table(&self) -> std::sync::MutexGuard<'_, Table> {
            // A violation panics with the lock released, but a poisoned
            // table must still reset for the next `advance`.
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Forget the previous `advance` (which may have been cut short).
        pub(super) fn reset(&self) {
            let mut t = self.table();
            t.inflight.clear();
            t.done.fill(false);
        }

        /// Check task `(p, c)` against the table, then register it.
        ///
        /// # Panics
        /// Panics when its windows meet those of a task in flight, when a
        /// task of the sweep before that touched its windows has not
        /// completed (a producer of what it reads, or a reader of what it
        /// overwrites), when the chunk before it has not completed (its
        /// carried state is not ready), or when the sweep whose scratch
        /// slot it takes over has not drained.
        pub(super) fn enter(&self, sched: &Schedule, p: usize, c: usize) -> Running<'_> {
            let part = sched.part(p, c);
            let violation = {
                let mut t = self.table();
                let done = |t: &Table, p: usize, c: usize| t.done[p * sched.chunks + c];
                let concurrent = t
                    .inflight
                    .iter()
                    .find(|(_, other)| part.conflicts(other))
                    .map(|(at, other)| format!("meets {at:?} in flight ({other:?})"));
                let unfinished = (p > 0).then(|| {
                    (0..sched.chunks)
                        .find(|&c2| !done(&t, p - 1, c2) && part.conflicts(&sched.part(p - 1, c2)))
                        .map(|c2| format!("touches slabs of unfinished ({}, {c2})", p - 1))
                });
                let carried = (c > 0 && !done(&t, p, c - 1))
                    .then(|| format!("resumes unfinished ({p}, {})", c - 1));
                let slot =
                    (c == 0 && p >= sched.slots && !done(&t, p - sched.slots, sched.chunks - 1))
                        .then(|| format!("takes the slot of undrained sweep {}", p - sched.slots));
                let violation = concurrent.or(unfinished.flatten()).or(carried).or(slot);
                if violation.is_none() {
                    t.inflight.push(((p, c), part.clone()));
                }
                violation
            };
            if let Some(why) = violation {
                panic!("sweep hazard: task ({p}, {c}) {part:?} {why}");
            }
            Running {
                table: self,
                at: (p, c),
                slot: p * sched.chunks + c,
            }
        }
    }

    impl Drop for Running<'_> {
        fn drop(&mut self) {
            let mut t = self.table.table();
            t.inflight.retain(|(at, _)| *at != self.at);
            // A task that unwinds has not produced its slabs.
            t.done[self.slot] = !std::thread::panicking();
        }
    }
}

/// Reusable workspace of the in-place pipelined sweeps, for any kernel and
/// dimensionality (see the [module docs](self)): schedule and engine
/// resolved once in [`Sweeps::new`], scratch slots (and the multi-load
/// twin) allocated once, then reused by every [`Sweeps::advance`] call —
/// which allocates nothing and copies no slab of the grid.
pub struct Sweeps<K: KernelSpace> {
    kern: K,
    mode: Mode,
    dims: [usize; 3],
    sched: Schedule,
    engine: Option<Engine>,
    /// Codegen context of every task: the resolved temporal engine, or
    /// the selection's for the other modes.
    isa: Engine,
    /// `slots[p % slots.len()]`: what the chunks of sweep `p` hand each
    /// other.
    slots: Vec<Slot<K>>,
    /// The second buffer of the multi-load sweeps.
    twin: Option<K::Grid>,
    /// Vector sweeps tick [`tempora_simd::count`].
    count: bool,
    #[cfg(any(test, debug_assertions))]
    hazards: hazards::Hazards,
}

impl<K: KernelSpace> Sweeps<K> {
    /// Build a workspace for interior extents `dims` (outer first) with
    /// boundary `bc`, advancing `steps` levels per [`Sweeps::advance`] in
    /// chunks of `block` anchors (widened to `max(VL·s, 2)`). For
    /// [`Mode::Temporal`], `sel` picks the steady state (resolved here,
    /// once, by capability).
    ///
    /// # Panics
    /// Panics when `block == 0` (`tempora_plan` validates the geometry
    /// ahead of time and returns a `PlanError` instead).
    pub fn new(
        kern: K,
        dims: [usize; 3],
        bc: Boundary<Elem<K>>,
        steps: usize,
        block: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        assert!(block >= 1, "chunks hold at least one anchor");
        let sched = Schedule::new::<K>(dims[0], steps, block, mode);
        let engine = match mode {
            Mode::Temporal(_) => Some(K::resolve(sel)),
            _ => None,
        };
        Sweeps {
            kern,
            mode,
            dims,
            sched,
            engine,
            isa: engine.unwrap_or_else(|| sel.resolve(true)),
            slots: (0..sched.slots)
                .map(|_| Slot::new(dims, &sched, mode))
                .collect(),
            twin: (mode == Mode::Auto).then(|| K::Grid::with_dims(dims, bc)),
            count: false,
            #[cfg(any(test, debug_assertions))]
            hazards: hazards::Hazards::new(&sched),
        }
    }

    /// Turn the vector sweeps' reorganization-op accounting
    /// ([`tempora_simd::count`]) on or off. The counters are per thread:
    /// count on a one-thread pool.
    pub fn count_reorg(mut self, on: bool) -> Self {
        self.count = on;
        self
    }

    /// The engine this workspace resolved to (`None` for the
    /// non-dispatched scalar and multi-load modes).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Chunks per sweep.
    pub fn chunks(&self) -> usize {
        self.sched.chunks
    }

    /// Anchors per chunk: the `block` asked for, widened to
    /// `max(VL·s, 2)`.
    pub fn chunk(&self) -> usize {
        self.sched.chunk
    }

    /// Sweeps per [`Sweeps::advance`]: `steps / VL` vector sweeps plus
    /// `steps % VL` scalar ones in temporal mode, one per step otherwise.
    pub fn sweeps(&self) -> usize {
        self.sched.sweeps
    }

    /// Re-allocate the scratch slots and the multi-load twin through
    /// `pool` so their pages are faulted in by pool workers (best-effort
    /// NUMA spread — the wavefront has no static owner; the grid itself is
    /// caller-owned and advanced in place). Results are unchanged whether
    /// or not this runs.
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        let (dims, sched, mode) = (self.dims, self.sched, self.mode);
        let n_slots = self.slots.len();
        let slots = SyncSlice::new(&mut self.slots);
        let twin = SyncSlice::new(self.twin.as_mut_slice());
        pool.for_each_owned(n_slots + twin.len(), |i| {
            if i < n_slots {
                // SAFETY: slot i is written only by the one task i.
                let slot = unsafe { &mut slots.slice_mut()[i] };
                *slot = Slot::new(dims, &sched, mode);
            } else {
                // SAFETY: the twin is written only by the last task.
                let twin = unsafe { &mut twin.slice_mut()[0] };
                *twin = K::Grid::with_dims(dims, twin.boundary());
            }
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place, as one
    /// wavefront of sweep chunks on `pool`. Results are bit-identical to
    /// the sequential engines and the scalar reference under every mode,
    /// selection, block and thread count.
    ///
    /// # Panics
    /// Panics if `g` does not match the workspace geometry (or, in
    /// [`Mode::Auto`], the bits of its boundary value).
    pub fn advance(&mut self, g: &mut K::Grid, pool: &Pool) {
        assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
        assert_eq!(
            g.dims(),
            self.dims,
            "grid does not match workspace geometry"
        );
        let lay = g.layout();
        if let Some(twin) = &self.twin {
            // The twin's ghost cells were set once, from this boundary.
            assert!(
                g.boundary().same_bits(twin.boundary()),
                "boundary mismatch: {:?} vs the workspace's {:?}",
                g.boundary(),
                twin.boundary()
            );
        }
        #[cfg(any(test, debug_assertions))]
        self.hazards.reset();
        let (kern, sched, isa, slab, count) =
            (self.kern, self.sched, self.isa, lay.slab, self.count);
        let s = match self.mode {
            Mode::Temporal(s) => s,
            _ => 0,
        };
        let twin: &mut [Elem<K>] = match &mut self.twin {
            Some(twin) => twin.data_mut(),
            None => &mut [],
        };
        let bufs = [SyncSlice::new(g.data_mut()), SyncSlice::new(twin)];
        let slots = SyncSlice::new(&mut self.slots);
        #[cfg(any(test, debug_assertions))]
        let hazards = &self.hazards;
        pool.waves(sched.sweeps, sched.chunks, |p, c| {
            #[cfg(any(test, debug_assertions))]
            let _running = hazards.enter(&sched, p, c);
            let part = sched.part(p, c);
            // SAFETY: the hazard argument of the module docs, in `Span`s
            // (slab ranges of one buffer). A task reaches no memory but
            // the windows cut here — an access outside them is a
            // slice-bounds panic — and slot `p % slots`.
            //
            // Windows. `waves` runs (p, c) after (p, c-1), (p-1, c) and
            // (p-1, c+1), and beside no task nearer than one sweep and
            // two chunks. A window of (p, c) ends at most `reach` slabs
            // (vector sweep) or one slab (scalar, multi-load) past the
            // last anchor of chunk c, and `chunk ≥ max(reach, 2)`: it
            // ends inside chunk c+1, short of that chunk's last slab for
            // the one-slab kinds, while a window of a task two or more
            // chunks on starts at chunk c+2, or one slab before it for
            // the one-slab kinds. So the windows of tasks that may run
            // side by side are disjoint. What (p, c) reads is the output
            // of sweep p-1 up to chunk c+1 (and the epilogue, if that is
            // the last), all completed; what it overwrites, sweep p-1
            // read from its chunks up to c+1, all completed — a sweep
            // reads ahead of where it writes, never behind, bar the one
            // slab of the scalar kinds.
            //
            // Slot. The chunks of sweep p run one after the other, and
            // sweep p cannot start before sweep p - chunks + 1 has
            // drained (chain (p, 0) ← (p-1, 1) ← … ← (p-chunks+1,
            // chunks-1)): sweep p - slots, the previous user of the slot
            // (`slots ≤ chunks`), completed even earlier.
            let (own, slot) = unsafe {
                let Span { buf, lo, hi } = part.own;
                (
                    SlabsMut {
                        data: &mut bufs[buf].slice_mut()[lo * slab..(hi + 1) * slab],
                        first: lo,
                    },
                    &mut slots.slice_mut()[p % sched.slots],
                )
            };
            match (part.kind, &mut slot.sc, &mut slot.bufs, part.view) {
                (SweepKind::Vector, Some(sc), ..) if count => {
                    kern.sweep::<true>(isa, &lay, own, part.xs, s, sc);
                }
                (SweepKind::Vector, Some(sc), ..) => {
                    kern.sweep::<false>(isa, &lay, own, part.xs, s, sc);
                }
                (SweepKind::Scalar, _, Some(step), _) => {
                    kern.scalar_sweep(isa, &lay, own, part.xs, step);
                }
                (SweepKind::Multiload, .., Some(Span { buf, lo, hi })) => {
                    // SAFETY: as above; the source window is only read,
                    // here and by any task that may run beside this one.
                    let data = unsafe { &bufs[buf].slice_mut()[lo * slab..(hi + 1) * slab] };
                    let src = Slabs { data, first: lo };
                    kern.multiload_sweep(isa, &lay, src, own, part.xs);
                }
                _ => unreachable!("slots are allocated for the sweeps of the schedule"),
            }
        });
        if let Some(twin) = self.twin.as_ref().filter(|_| sched.sweeps % 2 == 1) {
            g.data_mut().copy_from_slice(twin.data());
        }
    }
}

/// One generated table for the workspace: every kind × mode × stride ×
/// block × steps × thread count × pinning × selection ≡ the scalar
/// reference, bitwise, with the hazard checker armed (it is compiled into
/// every test build). The helpers are `pub(crate)` because the entry
/// points in `floor_names.rs` drive the same workspace.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tempora_core::kernels::{
        BoxKern2d, GsKern1d, GsKern2d, GsKern3d, JacobiKern1d, JacobiKern2d, JacobiKern3d,
        LifeKern2d,
    };
    use tempora_grid::{
        fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, Grid1, Grid2, Grid3,
    };
    use tempora_parallel::PoolConfig;
    use tempora_stencil::{
        reference, Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs,
        Heat3dCoeffs, LifeRule,
    };

    /// What the table needs from a kernel besides [`KernelSpace`].
    pub(crate) trait Kind: KernelSpace {
        /// False for Gauss-Seidel (no multi-load mode).
        const JACOBI: bool;
        /// A seeded grid with a seed-dependent boundary value.
        fn grid(dims: [usize; 3], seed: u64) -> Self::Grid;
        /// `steps` sweeps of the scalar reference.
        fn gold(&self, g: &Self::Grid, steps: usize) -> Self::Grid;
        /// The first interior difference or clobbered canary, if any.
        fn mismatch(ours: &Self::Grid, gold: &Self::Grid) -> Option<String>;
    }

    fn bc(seed: u64) -> Boundary<f64> {
        Boundary::Dirichlet((seed % 7) as f64 * 0.5 - 1.0)
    }

    fn mismatch<D: core::fmt::Debug>(
        canaries: Result<(), usize>,
        diff: Option<D>,
    ) -> Option<String> {
        let canary = canaries.err().map(|at| format!("canary {at}"));
        diff.map(|d| format!("{d:?}")).or(canary)
    }

    impl Kind for JacobiKern1d {
        const JACOBI: bool = true;
        fn grid(dims: [usize; 3], seed: u64) -> Grid1<f64> {
            let mut g = Grid1::with_dims(dims, bc(seed));
            fill_random_1d(&mut g, seed, -1.0, 1.0);
            g
        }
        fn gold(&self, g: &Grid1<f64>, steps: usize) -> Grid1<f64> {
            reference::heat1d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid1<f64>, gold: &Grid1<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for GsKern1d {
        const JACOBI: bool = false;
        fn grid(dims: [usize; 3], seed: u64) -> Grid1<f64> {
            JacobiKern1d::grid(dims, seed)
        }
        fn gold(&self, g: &Grid1<f64>, steps: usize) -> Grid1<f64> {
            reference::gs1d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid1<f64>, gold: &Grid1<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for JacobiKern2d {
        const JACOBI: bool = true;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<f64> {
            let mut g = Grid2::with_dims(dims, bc(seed));
            fill_random_2d(&mut g, seed, -1.0, 1.0);
            g
        }
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::heat2d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<f64>, gold: &Grid2<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for BoxKern2d {
        const JACOBI: bool = true;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<f64> {
            JacobiKern2d::grid(dims, seed)
        }
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::box2d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<f64>, gold: &Grid2<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for GsKern2d {
        const JACOBI: bool = false;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<f64> {
            JacobiKern2d::grid(dims, seed)
        }
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::gs2d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<f64>, gold: &Grid2<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for LifeKern2d {
        const JACOBI: bool = true;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<i32> {
            let mut g = Grid2::with_dims(dims, Boundary::Dirichlet(0));
            fill_random_life(&mut g, seed, 0.4);
            g
        }
        fn gold(&self, g: &Grid2<i32>, steps: usize) -> Grid2<i32> {
            reference::life(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<i32>, gold: &Grid2<i32>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for JacobiKern3d {
        const JACOBI: bool = true;
        fn grid(dims: [usize; 3], seed: u64) -> Grid3<f64> {
            let mut g = Grid3::with_dims(dims, bc(seed));
            fill_random_3d(&mut g, seed, -1.0, 1.0);
            g
        }
        fn gold(&self, g: &Grid3<f64>, steps: usize) -> Grid3<f64> {
            reference::heat3d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid3<f64>, gold: &Grid3<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for GsKern3d {
        const JACOBI: bool = false;
        fn grid(dims: [usize; 3], seed: u64) -> Grid3<f64> {
            JacobiKern3d::grid(dims, seed)
        }
        fn gold(&self, g: &Grid3<f64>, steps: usize) -> Grid3<f64> {
            reference::gs3d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid3<f64>, gold: &Grid3<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    /// The pools every row runs on: 1, 2, 4 and 8 workers (more than this
    /// host may have cores: oversubscription reorders the wavefront),
    /// unpinned and pinned.
    pub(crate) fn pools() -> Vec<Pool> {
        let threads = [1, 2, 4, 8, 1, 2, 4, 8].into_iter();
        threads
            .zip([false, false, false, false, true, true, true, true])
            .map(|(t, pin)| Pool::with_config(PoolConfig::new(t).pin(pin)))
            .collect()
    }

    /// The modes a kind runs: scalar, multi-load (Jacobi only) and
    /// temporal at each of `strides`.
    fn modes<K: Kind>(strides: &[usize]) -> Vec<Mode> {
        let auto = K::JACOBI.then_some(Mode::Auto);
        let temporal = strides.iter().map(|&s| Mode::Temporal(s));
        [Mode::Scalar]
            .into_iter()
            .chain(auto)
            .chain(temporal)
            .collect()
    }

    /// Advance a copy of `g` with workspace `w`; returns it with the
    /// resolved engine.
    pub(crate) fn run<K: KernelSpace>(
        mut w: Sweeps<K>,
        g: &K::Grid,
        pool: &Pool,
    ) -> (K::Grid, Option<Engine>) {
        let mut g = g.clone();
        w.advance(&mut g, pool);
        (g, w.engine())
    }

    /// A workspace of `kern` for `g`'s geometry.
    pub(crate) fn workspace<K: Kind>(
        kern: &K,
        g: &K::Grid,
        steps: usize,
        block: usize,
        mode: Mode,
        sel: Select,
    ) -> Sweeps<K> {
        Sweeps::new(*kern, g.dims(), g.boundary(), steps, block, mode, sel)
    }

    /// The engine a temporal workspace must report: AVX2 exactly when the
    /// selection allows it and the CPU has it — whatever the stride, the
    /// block, the extents and the step count (the scalar schedule of a
    /// degenerate run is compiled for it too).
    fn expected_engine<K: Kind>(mode: Mode, sel: Select) -> Option<Engine> {
        let Mode::Temporal(_) = mode else {
            return None;
        };
        Some(if sel != Select::Portable && K::has_avx2_tile() {
            Engine::Avx2
        } else {
            Engine::Portable
        })
    }

    /// Every row of one kind at one geometry: mode × steps × block ×
    /// selection × pool, `fault_in` on every other row.
    pub(crate) fn table<K: Kind>(kern: &K, dims: [usize; 3], strides: &[usize], pools: &[Pool]) {
        let (nx, vl) = (dims[0], K::VL);
        let g = K::grid(dims, (nx * dims[1] + dims[2]) as u64);
        let mut row = 0;
        for mode in modes::<K>(strides) {
            let reach = match mode {
                Mode::Temporal(s) => vl * s,
                _ => vl,
            };
            for steps in [0, 1, vl - 1, vl, vl + 1, 2 * vl + 3, 5 * vl] {
                let gold = kern.gold(&g, steps);
                for block in [1, reach - 1, reach, reach + 1, nx.div_ceil(2), nx, nx + 5] {
                    for sel in [Select::Portable, Select::Auto] {
                        for pool in pools {
                            row += 1;
                            cell(kern, &g, &gold, steps, block, mode, sel, pool, row % 2 == 0);
                        }
                    }
                }
            }
        }
    }

    /// One row: build, optionally fault in, advance twice from the same
    /// state — both results ≡ `gold` — and check the engine report.
    // Justification: the arguments are the columns of the table.
    #[allow(clippy::too_many_arguments)]
    fn cell<K: Kind>(
        kern: &K,
        g: &K::Grid,
        gold: &K::Grid,
        steps: usize,
        block: usize,
        mode: Mode,
        sel: Select,
        pool: &Pool,
        fault_in: bool,
    ) {
        let at = || {
            format!(
                "dims={:?} {mode:?} block={block} steps={steps} {sel:?} threads={} pinned={} \
                 fault_in={fault_in}",
                g.dims(),
                pool.threads(),
                pool.is_pinned()
            )
        };
        let mut w = workspace(kern, g, steps, block, mode, sel);
        if fault_in {
            w.fault_in(pool);
        }
        assert_eq!(w.engine(), expected_engine::<K>(mode, sel), "{}", at());
        for run in 0..2 {
            let mut ours = g.clone();
            w.advance(&mut ours, pool);
            if let Some(d) = K::mismatch(&ours, gold) {
                panic!("{} run {run}: {d}", at());
            }
        }
    }

    // The kernels of the table; the asymmetric coefficients tell the
    // operands apart.
    pub(crate) fn heat1d() -> [JacobiKern1d; 2] {
        [
            Heat1dCoeffs::classic(0.25),
            Heat1dCoeffs::new(0.3, 0.45, 0.25),
        ]
        .map(JacobiKern1d)
    }
    pub(crate) fn gs1d() -> [GsKern1d; 2] {
        [Gs1dCoeffs::classic(0.27), Gs1dCoeffs::new(0.37, 0.4, 0.23)].map(GsKern1d)
    }
    pub(crate) fn heat2d() -> JacobiKern2d {
        JacobiKern2d(Heat2dCoeffs::classic(0.12))
    }
    pub(crate) fn box2d() -> BoxKern2d {
        BoxKern2d(Box2dCoeffs::new([
            [0.01, 0.07, 0.03],
            [0.09, 0.55, 0.08],
            [0.05, 0.06, 0.06],
        ]))
    }
    pub(crate) fn life() -> LifeKern2d {
        LifeKern2d(LifeRule::b2s23())
    }
    pub(crate) fn gs2d() -> [GsKern2d; 2] {
        [
            Gs2dCoeffs::classic(0.19),
            Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13),
        ]
        .map(GsKern2d)
    }
    pub(crate) fn heat3d() -> JacobiKern3d {
        JacobiKern3d(Heat3dCoeffs::classic(0.1))
    }
    pub(crate) fn gs3d() -> [GsKern3d; 2] {
        [
            Gs3dCoeffs::classic(0.11),
            Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07),
        ]
        .map(GsKern3d)
    }

    #[test]
    fn schedule_table_1d_matches_reference() {
        let pools = pools();
        for kern in heat1d() {
            // 150 cells: several chunks at every stride; 20: below VL·s
            // at s = 7 (scalar sweeps only).
            table(&kern, [150, 1, 1], &[2, 3, 7], &pools);
            table(&kern, [20, 1, 1], &[2, 7], &pools);
        }
        for kern in gs1d() {
            table(&kern, [150, 1, 1], &[2, 3, 7], &pools);
            table(&kern, [20, 1, 1], &[2, 7], &pools);
        }
    }

    #[test]
    fn schedule_table_2d_matches_reference() {
        let pools = pools();
        table(&heat2d(), [60, 13, 1], &[2, 3], &pools);
        table(&box2d(), [60, 13, 1], &[2], &pools);
        // Life at vl = 8: s = 8 leaves 7 anchors (one chunk) of 70 slabs.
        table(&life(), [70, 20, 1], &[2, 8], &pools);
        for kern in gs2d() {
            table(&kern, [60, 9, 1], &[2, 3], &pools);
        }
    }

    #[test]
    fn schedule_table_3d_matches_reference() {
        let pools = pools();
        table(&heat3d(), [40, 6, 7], &[2], &pools);
        for kern in gs3d() {
            table(&kern, [40, 5, 6], &[2], &pools);
        }
    }

    /// Every schedule of the table, as data.
    fn schedules() -> Vec<Schedule> {
        let mut out = vec![];
        for nx in [1usize, 2, 7, 8, 9, 20, 33, 60, 150, 1024] {
            for steps in [1, 3, 4, 5, 11, 20] {
                for mode in [
                    Mode::Scalar,
                    Mode::Auto,
                    Mode::Temporal(2),
                    Mode::Temporal(7),
                ] {
                    for block in [1, 2, 7, 8, 9, 27, 28, 29, nx.div_ceil(2), nx, nx + 5] {
                        out.push(Schedule::new::<JacobiKern1d>(nx, steps, block, mode));
                        out.push(Schedule::new::<LifeKern2d>(nx, steps, block, mode));
                    }
                }
            }
        }
        out
    }

    /// The hazard argument as a property of the schedule alone, whatever
    /// the pool happens to interleave: two tasks that conflict are always
    /// ordered by the dependences of `Pool::waves` (`(p', c')` precedes
    /// `(p, c)` iff `p' ≤ p` and `c' ≤ c + (p - p')`), parts partition the
    /// anchors, every window lies in the grid, and a sweep never takes
    /// over the slot of a sweep it could overlap.
    #[test]
    fn conflicting_tasks_are_ordered_by_the_wave_dependences() {
        for sched in schedules() {
            let Schedule {
                nx, chunks, sweeps, ..
            } = sched;
            // Rows repeat (a row is its kind, and for multi-load its
            // parity), so the first five say everything about the rest.
            let rows = sweeps.min(sched.vector + 3).min(5);
            for p in 0..rows {
                let mut next = 1;
                for c in 0..chunks {
                    let part = sched.part(p, c);
                    assert_eq!(*part.xs.start(), next, "{sched:?} ({p}, {c})");
                    assert!(part.xs.end() >= part.xs.start(), "{sched:?} ({p}, {c})");
                    next = part.xs.end() + 1;
                    for span in [Some(part.own), part.view].into_iter().flatten() {
                        assert!(
                            span.lo <= span.hi && span.hi <= nx + 1,
                            "{sched:?} {part:?}"
                        );
                    }
                    for p2 in 0..p {
                        for c2 in c + (p - p2) + 1..chunks {
                            let other = sched.part(p2, c2);
                            assert!(
                                !part.conflicts(&other),
                                "{sched:?}: ({p}, {c}) {part:?} and ({p2}, {c2}) {other:?} may \
                                 run side by side"
                            );
                        }
                    }
                }
                let end = if p < sched.vector { sched.x_max } else { nx };
                assert_eq!(next, end + 1, "{sched:?} sweep {p}");
            }
            // Sweep p starts after (p - (chunks-1), chunks-1): the sweeps
            // alive together span fewer rows than there are slots.
            assert!(
                sweeps == 0 || sched.slots >= chunks.min(sweeps),
                "{sched:?}"
            );
        }
    }

    /// The runtime checker fails loudly on each rule it enforces, driven
    /// by hand so that no race has to be lost.
    #[test]
    fn hazard_checker_rejects_each_violation() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let sched = Schedule::new::<JacobiKern1d>(100, 12, 8, Mode::Temporal(2));
        assert_eq!((sched.chunks, sched.sweeps, sched.slots), (12, 3, 3));
        let violation = |setup: &dyn Fn(&hazards::Hazards), sched: &Schedule, p, c| {
            let table = hazards::Hazards::new(sched);
            setup(&table);
            let err = catch_unwind(AssertUnwindSafe(|| drop(table.enter(sched, p, c))))
                .expect_err("the checker must panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let run = |t: &hazards::Hazards, sched: &Schedule, p, cs: core::ops::Range<usize>| {
            for c in cs {
                drop(t.enter(sched, p, c));
            }
        };
        // A legal order passes: the row-major one, and the tightest
        // pipeline (sweep 1 two chunks behind sweep 0).
        let table = hazards::Hazards::new(&sched);
        for p in 0..sched.sweeps {
            run(&table, &sched, p, 0..sched.chunks);
        }
        table.reset();
        run(&table, &sched, 0, 0..2);
        let ahead = table.enter(&sched, 0, 2);
        drop(table.enter(&sched, 1, 0));
        drop(ahead);
        // The chunk before has not completed: carried state not ready.
        let why = violation(&|t| run(t, &sched, 0, 0..1), &sched, 0, 2);
        assert!(why.contains("resumes unfinished (0, 1)"), "{why}");
        // The sweep before has not produced the slabs read ahead.
        let why = violation(&|t| run(t, &sched, 0, 0..1), &sched, 1, 0);
        assert!(why.contains("unfinished (0, 1)"), "{why}");
        // Slot reuse: sweep 3 would take the slot of sweep 0.
        let deep = Schedule { sweeps: 4, ..sched };
        let why = violation(
            &|t| {
                run(t, &deep, 0, 0..11);
                run(t, &deep, 1, 0..10);
                run(t, &deep, 2, 0..9);
            },
            &deep,
            3,
            0,
        );
        assert!(
            why.contains("unfinished (2, 1)") || why.contains("undrained sweep 0"),
            "{why}"
        );
        // Chunks narrower than the read-ahead: a task in flight two chunks
        // on holds slabs this one reads.
        let narrow = Schedule {
            chunk: 4,
            chunks: sched.x_max.div_ceil(4),
            ..sched
        };
        let table = hazards::Hazards::new(&narrow);
        run(&table, &narrow, 0, 0..2);
        let _ahead = table.enter(&narrow, 0, 2);
        let err = catch_unwind(AssertUnwindSafe(|| drop(table.enter(&narrow, 1, 0))))
            .expect_err("overlapping windows must panic");
        let why = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(why.contains("meets (0, 2) in flight"), "{why}");
    }
}
