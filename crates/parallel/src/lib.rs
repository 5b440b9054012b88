//! # tempora-parallel — worker pool and wavefront executor
//!
//! The multicore substrate for the parallel experiments (paper §4: "The
//! parallel codes were scaled from uni-core to all the 24 cores"),
//! replacing the authors' OpenMP runtime with a small pinned-worker
//! executor:
//!
//! * [`Pool::waves`] — a wavefront over a `(band, block)` grid with the
//!   dependence pattern of skewed/rectangular time tiling (`(b, i)`
//!   waits for `(b, i-1)` and `(b-1, i..=i+1)`): a dependence-counter
//!   pipeline that tracks per-task predecessor counts and releases each
//!   task the moment its last dependence completes — no full-pool
//!   barrier per anti-diagonal. The worker whose completion readies a
//!   task keeps one such **continuation** and runs it next (a band's
//!   next block first), so a band stays on the core that holds its
//!   scratch; a completed-task counter ends the region and is the
//!   watchdog's heartbeat;
//! * [`Pool::for_each_index`] — a bare dynamic region (one index per
//!   atomic claim), the kind the pipeline claims its ready slots
//!   through. No tiling dispatches it; it is public because the `ledger`
//!   benchmark times a no-op region through it
//!   (`parallel.dispatch_us`);
//! * per-core **pinning** ([`PoolConfig::pin`]) via `sched_setaffinity`
//!   on Linux/x86_64 behind a capability probe, a no-op elsewhere;
//! * [`SyncSlice`] — a shared-mutable slice handle for tile executors
//!   whose write sets are disjoint by construction;
//! * **failure containment** — every worker task boundary runs under
//!   `catch_unwind`: the first panic raises a pool-wide cancel flag that
//!   drains the region (a panicking wavefront task still releases its
//!   successors, so no peer blocks on a dead predecessor), the payload
//!   is re-thrown to the dispatching caller, and the pool itself
//!   survives to run the next job. An opt-in
//!   [`PoolConfig::stall_timeout`] watchdog converts a silently wedged
//!   wavefront into a panic carrying a task-graph snapshot.
//!
//! The pool places no memory: any worker may claim any task of a
//! wavefront, so no scratch slot has an owner whose pages it should be
//! faulted in by. A workspace allocates its arenas once, on the thread
//! that builds it.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tempora_failpoint::failpoint;

mod affinity;

/// Construction-time options for [`Pool::with_config`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Worker count, including the dispatching thread (clamped to ≥ 1).
    pub threads: usize,
    /// Pin each worker (and the dispatching thread) to one CPU.
    /// Best-effort: [`Pool::is_pinned`] reports whether every pin took
    /// effect. The dispatcher's original affinity is restored on drop.
    pub pin: bool,
    /// Opt-in wavefront watchdog: when set, a worker that sees no task
    /// of the wavefront complete for this long while waiting on a ready
    /// slot panics with a task-graph snapshot instead of spinning
    /// forever, converting a silent scheduler wedge into a contained,
    /// diagnosable failure. `None` (the default) keeps the hot claim
    /// loop free of clock reads.
    pub stall_timeout: Option<Duration>,
}

impl PoolConfig {
    /// Options for an unpinned pool of `threads` workers.
    pub fn new(threads: usize) -> Self {
        PoolConfig {
            threads,
            pin: false,
            stall_timeout: None,
        }
    }

    /// Request per-core pinning.
    pub fn pin(mut self, pin: bool) -> Self {
        self.pin = pin;
        self
    }

    /// Arm the wavefront stall watchdog (see
    /// [`PoolConfig::stall_timeout`]).
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }
}

/// A type-erased pointer to the current region's task, smuggled to the
/// workers as a raw data pointer plus a monomorphized call shim.
///
/// The dispatching call blocks until every worker has finished the
/// region, so the erased borrow never outlives the closure it points
/// to. Plain raw-pointer erasure (no `transmute`, no fabricated
/// `'static` lifetime) keeps the invariant visible at the single
/// `unsafe` call site in [`run_region`].
#[derive(Clone, Copy)]
struct TaskRef {
    /// Borrow of the dispatching call's closure, erased to `*const ()`.
    data: *const (),
    /// Monomorphized shim that casts `data` back to the concrete
    /// closure type and invokes it.
    ///
    /// # Safety (to call)
    /// `data` must still point to the live closure this shim was
    /// instantiated for.
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` points to a `Sync` closure (enforced by the
// `F: Fn(usize) + Sync` bound in `Pool::dispatch`), and it is only
// invoked while the dispatching call blocks, keeping the closure alive.
unsafe impl Send for TaskRef {}

struct PoolState {
    /// Region generation; bumped once per dispatched parallel region.
    generation: u64,
    /// The current region's task and its index count `n`: workers claim
    /// the indices `0..n` one per `fetch_add`.
    task: Option<(TaskRef, usize)>,
    /// Workers still running the current region.
    active: usize,
    /// Workers that finished startup (pinning settled).
    started: usize,
    /// Pool shutdown flag (set on drop).
    shutdown: bool,
}

/// Reusable scratch for the pipelined wavefront: predecessor counts, the
/// ready-slot queue and the region's tallies. Grow-only, so steady-state
/// `waves` calls are allocation-free.
#[derive(Default)]
struct WaveScratch {
    /// Remaining unfinished predecessors per task.
    counts: Vec<AtomicUsize>,
    /// Ready queue: slot `k` holds `task_id + 1` once the `k`-th task to
    /// be published is (0 = not yet).
    slots: Vec<AtomicUsize>,
    /// Next free publish slot.
    cursor: AtomicUsize,
    /// Tasks run to completion: the region ends when it reaches the task
    /// count, and the stall watchdog keys on it.
    completed: AtomicUsize,
    /// Tasks run next by the worker whose completion readied them,
    /// instead of being published.
    kept: AtomicUsize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    next: AtomicUsize,
    /// False if any requested worker pin failed.
    pin_ok: AtomicBool,
    wave_scratch: Mutex<WaveScratch>,
    /// Raised by the first panicking task of a region; tells every other
    /// worker to drain (skip remaining work) instead of running on.
    cancel: AtomicBool,
    /// The first panic payload of the current region, re-thrown to the
    /// dispatching caller once the region has drained.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Copy of [`PoolConfig::stall_timeout`] for the wavefront watchdog.
    stall_timeout: Option<Duration>,
}

impl PoolShared {
    /// Record `payload` as the region's first panic (later panics are
    /// dropped — the first one is the root cause) and raise the cancel
    /// flag so the rest of the region drains without running.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        {
            let mut slot = self.panic_payload.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Ordering: Relaxed — the flag is an advisory drain signal; the
        // payload handoff itself is ordered by the payload mutex plus
        // the end-of-region handshake on the state mutex.
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// True once a task of the current region has panicked.
    fn cancelled(&self) -> bool {
        // Ordering: Relaxed — see `record_panic`; a slightly stale read
        // only means one more task runs before the drain is observed.
        self.cancel.load(Ordering::Relaxed)
    }

    /// Take the recorded panic payload, if any, leaving the slot empty.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic_payload.lock().take()
    }

    /// Hand out no further index of the current region `0..n`: what is
    /// left of it has nothing to do.
    fn close_region(&self, n: usize) {
        // Ordering: Relaxed — like every claim of `next`, this only
        // parcels out indices; a claimer that still gets one below `n`
        // finds nothing to do there.
        self.next.fetch_max(n, Ordering::Relaxed);
    }
}

/// A fixed-width worker pool with **persistent, parked workers**.
///
/// Stencil time-tiling dispatches thousands of small parallel regions
/// (one or two per band, or one per tile grid); spawning threads per
/// region costs hundreds of microseconds on some kernels and would
/// dominate the tile work, so the workers are created once and woken
/// through a condvar. The dispatching thread participates in the work
/// as worker 0.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
    pinned: bool,
    /// The dispatcher's pre-pinning affinity, restored on drop.
    caller_mask: Option<affinity::Mask>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pool(threads={}, pinned={})", self.threads, self.pinned)
    }
}

impl Pool {
    /// Create an unpinned pool using `threads` workers (clamped to
    /// ≥ 1). One of the workers is the caller itself, so `threads - 1`
    /// OS threads are spawned.
    pub fn new(threads: usize) -> Self {
        Pool::with_config(PoolConfig::new(threads))
    }

    /// Create a pool from explicit [`PoolConfig`] options.
    pub fn with_config(cfg: PoolConfig) -> Self {
        let threads = cfg.threads.max(1);
        // Enumerate pinnable CPUs up front; worker k goes to
        // cpus[k mod len] so oversubscribed pools still pin sanely.
        let cpus = if cfg.pin {
            affinity::available_cpus()
        } else {
            Vec::new()
        };
        let want_pin = cfg.pin && !cpus.is_empty();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                task: None,
                active: 0,
                started: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            pin_ok: AtomicBool::new(true),
            wave_scratch: Mutex::new(WaveScratch::default()),
            cancel: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            stall_timeout: cfg.stall_timeout,
        });
        let handles: Vec<_> = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                let target = want_pin.then(|| cpus[k % cpus.len()]);
                std::thread::spawn(move || {
                    // Startup runs under a panic boundary: a worker that
                    // died before the handshake would leave `with_config`
                    // waiting forever on `started`. The payload is
                    // recorded and re-thrown to the constructing caller.
                    let startup = catch_unwind(AssertUnwindSafe(|| {
                        failpoint!("pool_worker_spawn", k);
                        if let Some(cpu) = target {
                            if !affinity::pin_to(cpu) {
                                // Ordering: Release — pairs with the Acquire
                                // load in `with_config` after the startup
                                // handshake, so a failed pin is visible once
                                // `started` reaches its target.
                                shared.pin_ok.store(false, Ordering::Release);
                            }
                        }
                    }));
                    if let Err(payload) = startup {
                        shared.record_panic(payload);
                    }
                    {
                        let mut st = shared.state.lock();
                        st.started += 1;
                        shared.done_cv.notify_all();
                    }
                    worker_loop(&shared);
                })
            })
            .collect();
        // Pin the dispatcher (worker 0), keeping its original mask so
        // Drop can hand the thread back unpinned.
        let mut caller_mask = None;
        let mut pinned = want_pin;
        if want_pin {
            caller_mask = affinity::current();
            if !affinity::pin_to(cpus[0]) {
                pinned = false;
            }
        }
        // Wait for every worker's pin attempt to settle so is_pinned()
        // is accurate from the first query.
        {
            let mut st = shared.state.lock();
            while st.started != threads - 1 {
                shared.done_cv.wait(&mut st);
            }
        }
        // Ordering: Acquire — pairs with each worker's Release store so
        // every pin failure published before the handshake is observed.
        pinned = pinned && shared.pin_ok.load(Ordering::Acquire);
        let pool = Pool {
            shared,
            threads,
            handles,
            pinned,
            caller_mask,
        };
        // A panic during worker startup (failpoint-injected) is re-thrown
        // to the constructing caller only now, after the pool is fully
        // assembled: the surviving workers are parked, so dropping `pool`
        // during the unwind shuts them down cleanly.
        if let Some(payload) = pool.shared.take_panic() {
            resume_unwind(payload);
        }
        pool
    }

    /// Number of workers (including the dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when pinning was requested and every thread of the pool
    /// (workers and dispatcher) was successfully pinned to a CPU.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Whether this platform supports thread-to-core pinning at all
    /// (Linux/x86_64 with a readable affinity mask).
    pub fn pinning_supported() -> bool {
        affinity::supported()
    }

    /// Dispatch one parallel region and block until it completes (every
    /// worker done, including a drain after a panic). Returns the first
    /// panic payload raised by a task of the region, if any; the caller
    /// re-throws it after restoring its own invariants.
    fn dispatch<F: Fn(usize) + Sync>(&self, n: usize, f: &F) -> Option<Box<dyn Any + Send>> {
        /// Cast the erased pointer back to `F` and run one index.
        ///
        /// # Safety
        /// `data` must point to a live `F` (guaranteed here because
        /// `dispatch` blocks until every worker finished the region).
        unsafe fn call_shim<F: Fn(usize)>(data: *const (), i: usize) {
            // SAFETY: `data` was produced from `&F` two frames up and
            // that borrow is still held by the blocked `dispatch` call.
            unsafe { (*(data as *const F))(i) }
        }
        // Erase the closure behind a raw pointer; the wait below keeps
        // the pointee alive until every worker is done with it.
        let task = TaskRef {
            data: f as *const F as *const (),
            call: call_shim::<F>,
        };
        {
            let mut st = self.shared.state.lock();
            // Ordering: Relaxed — the reset is published to workers by
            // the state-mutex release below, not by the atomic itself.
            self.shared.next.store(0, Ordering::Relaxed);
            // Ordering: Relaxed — like `next`, the cleared cancel flag is
            // published by the state-mutex release below. No worker from
            // the previous region is live (its dispatch drained fully).
            self.shared.cancel.store(false, Ordering::Relaxed);
            st.task = Some((task, n));
            st.active = self.threads - 1;
            st.generation += 1;
            self.shared.work_cv.notify_all();
        }
        // The dispatcher helps as worker 0.
        run_region(&self.shared, task, n);
        // Wait for the workers to drain their in-flight tasks.
        {
            let mut st = self.shared.state.lock();
            while st.active != 0 {
                self.shared.done_cv.wait(&mut st);
            }
            st.task = None;
        }
        self.shared.take_panic()
    }

    /// Run `f(i)` for every `i ∈ 0..n`, workers claiming one index at a
    /// time off one atomic counter. Returns when all tasks finished
    /// (bulk-synchronous). [`Pool::waves`] hands out its ready-slot
    /// tickets through the same kind of region; see the crate docs for
    /// why this one is public.
    ///
    /// # Panics
    /// Re-throws the first panic raised by `f` after the region has
    /// drained (remaining indices are skipped, none run twice). The pool
    /// itself survives and can dispatch further regions.
    pub fn for_each_index<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.threads == 1 || n <= 1 {
            for i in 0..n {
                failpoint!("pool_task", i);
                f(i);
            }
            return;
        }
        if let Some(payload) = self.dispatch(n, &f) {
            resume_unwind(payload);
        }
    }

    /// Execute `f(band, block)` for all `(band, block) ∈ n_bands ×
    /// n_blocks` respecting the dependences of skewed time tiling —
    /// `(b, i)` after `(b, i-1)`, `(b-1, i)` and `(b-1, i+1)` — as a
    /// dependence-counter pipeline. One parallel region covers the whole
    /// grid: every task carries an atomic count of its ≤ 3 unfinished
    /// predecessors, decremented as they complete, so bands overlap, no
    /// full-pool barrier runs per anti-diagonal and the pool is woken
    /// exactly once.
    ///
    /// The worker whose completion readies successors **keeps** one of
    /// them and runs it next — the same band's next block, else
    /// `(b+1, i)`, else `(b+1, i-1)` — and publishes the others to a
    /// lock-free ready queue, whose slots the workers claim in publish
    /// order. A band's consecutive blocks therefore tend to run on one
    /// core, next to the state they hand each other, instead of moving to
    /// whichever worker waits on the next slot. The region ends when a
    /// completed-task counter reaches `n_bands · n_blocks`.
    ///
    /// Tasks that may run concurrently are at band distance ≥ 1 and
    /// block distance ≥ 2, which the tiling layer uses to prove
    /// write-set disjointness. `f` must not dispatch further regions on
    /// this pool.
    ///
    /// # Panics
    /// Re-throws the first panic raised by `f` after the wavefront has
    /// drained: a panicking task still releases its successors, which are
    /// then skipped under the pool-wide cancel flag, so no peer blocks on
    /// a dead predecessor. The pool (and its wave scratch) is left
    /// reusable for the next job.
    pub fn waves<F>(&self, n_bands: usize, n_blocks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n_bands == 0 || n_blocks == 0 {
            return;
        }
        let total = n_bands * n_blocks;
        if self.threads == 1 || total == 1 {
            // Row-major order satisfies every dependence sequentially. A
            // panic unwinds directly to the caller — there are no peers
            // to drain — carrying the same payload a parallel run would.
            for b in 0..n_bands {
                for i in 0..n_blocks {
                    failpoint!("wave_task", b, i);
                    f(b, i);
                }
            }
            return;
        }
        let mut scratch = self.shared.wave_scratch.lock();
        let scratch = &mut *scratch;
        if scratch.counts.len() < total {
            scratch.counts.resize_with(total, || AtomicUsize::new(0));
            scratch.slots.resize_with(total, || AtomicUsize::new(0));
        }
        // Ordering (all init loops/stores): Relaxed — this thread holds
        // the scratch mutex and has not dispatched yet; the whole
        // initialized state is published to the workers by the region
        // handoff in `dispatch` (state-mutex release → condvar wake),
        // which happens-after every store here.
        for b in 0..n_bands {
            for i in 0..n_blocks {
                let preds = usize::from(i > 0)
                    + usize::from(b > 0)
                    + usize::from(b > 0 && i + 1 < n_blocks);
                // Ordering: Relaxed — see the init-block comment above.
                scratch.counts[b * n_blocks + i].store(preds, Ordering::Relaxed);
            }
        }
        for s in &scratch.slots[..total] {
            // Ordering: Relaxed — see the init-block comment above.
            s.store(0, Ordering::Relaxed);
        }
        // Only (0, 0) starts with zero predecessors; publish it.
        // Ordering: Relaxed — see the init-block comment above.
        scratch.slots[0].store(1, Ordering::Relaxed);
        // Ordering: Relaxed — see the init-block comment above.
        scratch.cursor.store(1, Ordering::Relaxed);
        // Ordering: Relaxed — see the init-block comment above.
        scratch.completed.store(0, Ordering::Relaxed);
        // Ordering: Relaxed — see the init-block comment above.
        scratch.kept.store(0, Ordering::Relaxed);
        let scratch = &*scratch;
        let shared = &*self.shared;
        let stall = shared.stall_timeout;
        // Each worker claims sequential tickets; ticket k spins until
        // the k-th published task appears or every task has completed,
        // then runs the task and the chain of continuations it keeps.
        // Liveness: a ready task is either kept — its keeper runs it
        // next — or published to a slot below the cursor, whose ticket
        // some worker holds or will claim (tickets go out in order, one
        // per task, and fewer tasks are published than there are
        // tasks). Whenever unexecuted tasks remain the dependence DAG
        // has a minimal element whose final predecessor's completion
        // readies it. A panicking task breaks the second half of that
        // argument, so the claim loop also watches the pool-wide cancel
        // flag.
        let run_one = move |ticket: usize| {
            let mut spins = 0u32;
            let mut watch = stall.map(|timeout| (timeout, usize::MAX, Instant::now()));
            let first = loop {
                if shared.cancelled() {
                    // A peer panicked; this ticket's task may never be
                    // published, so stop waiting and drain.
                    return;
                }
                // Ordering: Acquire — pairs with the Release publish in
                // `ready` below; seeing slot != 0 therefore also makes
                // every predecessor task's stencil writes visible to
                // this claimer (the happens-before edge the schedule's
                // correctness rests on).
                let v = scratch.slots[ticket].load(Ordering::Acquire);
                if v != 0 {
                    break v - 1;
                }
                // Ordering: Relaxed — a claimer that sees every task
                // completed leaves without touching task data; the
                // caller is ordered after all of it by `dispatch`'s
                // end-of-region handshake.
                let done = scratch.completed.load(Ordering::Relaxed);
                if done == total {
                    // Kept continuations left this slot unpublished.
                    return;
                }
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    // Keep oversubscribed pools (threads > cores) live.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                // Opt-in watchdog: if no task completes for the
                // configured window while this claimer starves, a lost
                // wakeup or wedged peer has silenced the wavefront —
                // panic with a task-graph snapshot instead of spinning
                // forever (the panic is then contained like any other).
                if let Some((timeout, last_done, since)) = watch.as_mut() {
                    if spins.is_multiple_of(1024) {
                        if done != *last_done {
                            *last_done = done;
                            *since = Instant::now();
                        } else if since.elapsed() >= *timeout {
                            panic!(
                                "{}",
                                stall_report(scratch, n_bands, n_blocks, ticket, *timeout)
                            );
                        }
                    }
                }
            };
            let mut next = Some(first);
            while let Some(task) = next.take() {
                let b = task / n_blocks;
                let i = task % n_blocks;
                // Contain this task's panic locally so the releases below
                // still run: successors must be freed (they are then
                // skipped under the cancel flag) or peers would spin
                // forever on a dead predecessor. Under an already-raised
                // cancel flag the task body is skipped outright — only
                // the drain remains.
                if !shared.cancelled() {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        failpoint!("wave_task", b, i);
                        f(b, i);
                    }));
                    if let Err(payload) = result {
                        shared.record_panic(payload);
                    }
                }
                let mut ready = |tb: usize, ti: usize| {
                    let id = tb * n_blocks + ti;
                    // Ordering: AcqRel — the Release half publishes this
                    // predecessor's stencil writes into the counter; the
                    // Acquire half makes the *other* predecessors' writes
                    // (published by their own decrements) visible to
                    // whichever thread performs the final decrement: a
                    // kept successor runs on that thread, and a
                    // published one carries them in its slot's Release
                    // store.
                    if scratch.counts[id].fetch_sub(1, Ordering::AcqRel) != 1 {
                        return;
                    }
                    if next.is_none() {
                        next = Some(id);
                        // Ordering: Relaxed — a tally, read once the
                        // region has drained.
                        scratch.kept.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Ordering: Relaxed — the cursor only reserves a
                    // unique publish slot; the payload is ordered by the
                    // slot's own Release store below.
                    let p = scratch.cursor.fetch_add(1, Ordering::Relaxed);
                    // Ordering: Release — pairs with the claimer's
                    // Acquire load; publishes the task id together with
                    // every predecessor write chained through the AcqRel
                    // decrement above.
                    scratch.slots[p].store(id + 1, Ordering::Release);
                };
                // In order of preference for the one kept.
                if i + 1 < n_blocks {
                    ready(b, i + 1);
                }
                if b + 1 < n_bands {
                    ready(b + 1, i);
                    if i > 0 {
                        ready(b + 1, i - 1);
                    }
                }
                // Ordering: Relaxed — a heartbeat and the end-of-region
                // count; task data is ordered by the counts and slots.
                if scratch.completed.fetch_add(1, Ordering::Relaxed) + 1 == total {
                    shared.close_region(total);
                }
            }
        };
        // Tickets are claimed (and awaited) one at a time: claiming runs
        // of them would serialize the pipeline's release order.
        let panicked = self.dispatch(total, &run_one);
        if let Some(payload) = panicked {
            // A cancelled wavefront leaves the scratch mid-flight; zero
            // the used prefix and the tallies so the scratch is back to a
            // clean reusable state (the next `waves` call re-initializes
            // it anyway, but a zeroed prefix keeps the reuse invariant
            // auditable).
            for c in &scratch.counts[..total] {
                // Ordering (all reset stores): Relaxed — every worker of
                // the region has drained (`dispatch` returned) and the
                // next region's handoff publishes these values.
                c.store(0, Ordering::Relaxed);
            }
            for s in &scratch.slots[..total] {
                // Ordering: Relaxed — see the reset-block comment above.
                s.store(0, Ordering::Relaxed);
            }
            for tally in [&scratch.cursor, &scratch.completed, &scratch.kept] {
                // Ordering: Relaxed — see the reset-block comment above.
                tally.store(0, Ordering::Relaxed);
            }
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(mask) = self.caller_mask.take() {
            let _ = affinity::restore(&mask);
        }
    }
}

/// Run one task index under the region's panic boundary: a panic from
/// the closure is recorded in `shared` (first panic wins) and the
/// pool-wide cancel flag raised so the rest of the region drains.
fn run_task_contained(shared: &PoolShared, task: TaskRef, i: usize) {
    // AssertUnwindSafe: a panic may leave the closure's captured state
    // mid-update. That state belongs to the dispatching caller, who
    // receives the re-thrown payload and owns the decision of whether
    // the data is still usable (tempora_plan answers by poisoning the
    // plan until an explicit reset).
    let result = catch_unwind(AssertUnwindSafe(|| {
        failpoint!("pool_task", i);
        // SAFETY: `task` was published for the current region by
        // `Pool::dispatch`, which blocks until every worker reports
        // done, so `task.data` still points to the live closure
        // `task.call` was monomorphized for.
        unsafe { (task.call)(task.data, i) };
    }));
    if let Err(payload) = result {
        shared.record_panic(payload);
    }
}

/// Claim and run indices of the region `0..n` until none is left. Every
/// task runs through [`run_task_contained`], so a panic can never unwind
/// out of a worker thread; once the cancel flag is up, remaining work is
/// skipped.
fn run_region(shared: &PoolShared, task: TaskRef, n: usize) {
    while !shared.cancelled() {
        // Ordering: Relaxed — the counter only parcels out indices; the
        // task closure itself was published through the state mutex, and
        // claimers need no cross-claim ordering.
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        run_task_contained(shared, task, i);
    }
}

/// Compose the watchdog's diagnostic: which ready slot the claimer was
/// starving on, how many tasks completed, how many were published or
/// kept, and a bounded snapshot of the tasks still waiting on
/// predecessors.
fn stall_report(
    scratch: &WaveScratch,
    n_bands: usize,
    n_blocks: usize,
    ticket: usize,
    timeout: Duration,
) -> String {
    use std::fmt::Write as _;
    let total = n_bands * n_blocks;
    // Ordering (all snapshot loads): Relaxed — diagnostic only; the
    // wavefront is already considered wedged.
    let completed = scratch.completed.load(Ordering::Relaxed);
    // Ordering: Relaxed — see the snapshot comment above.
    let published = scratch.cursor.load(Ordering::Relaxed).min(total);
    // Ordering: Relaxed — see the snapshot comment above.
    let kept = scratch.kept.load(Ordering::Relaxed);
    let mut blocked = String::new();
    let mut n_blocked = 0usize;
    for b in 0..n_bands {
        for i in 0..n_blocks {
            // Ordering: Relaxed — see the snapshot comment above.
            let c = scratch.counts[b * n_blocks + i].load(Ordering::Relaxed);
            if c > 0 {
                if n_blocked < 8 {
                    let _ = write!(blocked, " ({b},{i})<={c}");
                }
                n_blocked += 1;
            }
        }
    }
    if n_blocked > 8 {
        let _ = write!(blocked, " ...and {} more", n_blocked - 8);
    }
    format!(
        "wavefront stalled: no task completed for {timeout:?} while waiting \
         on ready slot {ticket} ({completed}/{total} tasks completed, \
         {published} published, {kept} kept on a {n_bands}x{n_blocks} grid); \
         tasks still awaiting predecessors (task<=count):{blocked}"
    )
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let (task, n) = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break;
                }
                shared.work_cv.wait(&mut st);
            }
            // Panic-justification: a fresh generation with no task is a
            // bug in the dispatch protocol itself (dispatch publishes
            // both under one lock), not a recoverable runtime condition.
            st.task.expect("woken without a task")
        };
        run_region(shared, task, n);
        let mut st = shared.state.lock();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// A shared, mutably-aliasable slice for tile executors with provably
/// disjoint write sets.
///
/// The stencil tiling layers hand each task a region of one global array;
/// the scheduling proofs (ghost-zone independence, wavefront distance)
/// guarantee no two concurrent tasks touch overlapping elements, which
/// Rust's type system cannot express directly. `SyncSlice` centralizes
/// the single `unsafe` escape hatch behind that argument.
pub struct SyncSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access discipline is delegated to the caller per the type docs;
// the pointer itself is valid for 'a and T is plain Send data.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}
// SAFETY: sharing the handle only exposes `slice_mut`, whose own
// contract requires disjoint (or happens-before-ordered) access; the
// handle itself holds no thread-affine state.
unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wrap a mutable slice for concurrent disjoint access.
    pub fn new(slice: &'a mut [T]) -> Self {
        SyncSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Reborrow the whole slice mutably.
    ///
    /// # Safety
    /// The caller must guarantee that no two concurrently-live borrows
    /// (from any thread) access overlapping index ranges, and that reads
    /// of ranges written by other tasks happen only after those tasks
    /// completed (e.g. across a pool barrier or a wavefront dependence).
    // Returning `&mut` from `&self` is this type's entire purpose: the
    // disjointness proof lives with the caller, per the contract below.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [T] {
        // SAFETY: `ptr`/`len` come from the `&'a mut [T]` captured in
        // `new`, so the region is valid and writable for 'a; aliasing
        // between the returned borrows is excluded by this method's
        // caller contract (disjoint index ranges or happens-before).
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn for_each_index_covers_all_once() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_index(100, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_empty_and_single() {
        let pool = Pool::new(4);
        pool.for_each_index(0, |_| panic!("no tasks expected"));
        let count = AtomicUsize::new(0);
        pool.for_each_index(1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    /// The stamp oracle shared by every wavefront test: run the
    /// schedule, then check that each task's completion stamp is after
    /// all three of its dependences.
    fn check_wave_order(pool: &Pool, nb: usize, nc: usize) {
        let log = Mutex::new(Vec::new());
        let stamp = AtomicU64::new(0);
        pool.waves(nb, nc, |b: usize, i: usize| {
            let t = stamp.fetch_add(1, Ordering::SeqCst);
            log.lock().unwrap().push((b, i, t));
        });
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), nb * nc);
        let stamp_of = |b: usize, i: usize| log.iter().find(|e| e.0 == b && e.1 == i).unwrap().2;
        for b in 0..nb {
            for i in 0..nc {
                if i > 0 {
                    assert!(stamp_of(b, i - 1) < stamp_of(b, i), "left dep violated");
                }
                if b > 0 {
                    assert!(stamp_of(b - 1, i) < stamp_of(b, i), "below dep violated");
                    if i + 1 < nc {
                        assert!(
                            stamp_of(b - 1, i + 1) < stamp_of(b, i),
                            "below-right dep violated"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn waves_cover_grid_and_respect_order() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for (nb, nc) in [(5usize, 7usize), (1, 9), (6, 1), (3, 3)] {
                check_wave_order(&pool, nb, nc);
            }
        }
    }

    #[test]
    fn many_small_regions_generation_churn() {
        // Time tiling dispatches thousands of tiny regions back to
        // back; the generation protocol must not lose or double-run
        // any of them.
        let pool = Pool::new(4);
        let count = AtomicUsize::new(0);
        for _ in 0..1500 {
            pool.for_each_index(3, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 1500 * 3);
        for _ in 0..200 {
            pool.waves(2, 3, |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 1500 * 3 + 200 * 6);
        for _ in 0..500 {
            pool.for_each_index(5, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 1500 * 3 + 200 * 6 + 500 * 5);
    }

    #[test]
    fn pinned_pool_runs_and_reports() {
        let pool = Pool::with_config(PoolConfig::new(2).pin(true));
        // On Linux pinning should take effect; elsewhere it must be an
        // honest no-op, never a panic.
        assert_eq!(pool.is_pinned(), Pool::pinning_supported());
        let count = AtomicUsize::new(0);
        pool.for_each_index(100, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        pool.waves(3, 4, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 112);
    }

    #[test]
    fn sync_slice_disjoint_parallel_writes() {
        let pool = Pool::new(4);
        let mut data = vec![0u64; 64];
        let shared = SyncSlice::new(&mut data);
        pool.for_each_index(8, |i| {
            // SAFETY: each task writes a disjoint 8-element block.
            let s = unsafe { shared.slice_mut() };
            for v in &mut s[i * 8..(i + 1) * 8] {
                *v = i as u64 + 1;
            }
        });
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, (j / 8) as u64 + 1);
        }
    }

    #[test]
    fn pool_sizes() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(3).threads(), 3);
    }

    /// Snapshot the wave scratch (counts prefix, slots prefix, cursor)
    /// for the regression assertions below.
    fn scratch_state(pool: &Pool, total: usize) -> (Vec<usize>, Vec<usize>, usize) {
        let sc = pool.shared.wave_scratch.lock();
        let counts = sc.counts[..total]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let slots = sc.slots[..total]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        (counts, slots, sc.cursor.load(Ordering::Relaxed))
    }

    /// The wave scratch's tallies: `(completed, kept)`.
    fn tallies(pool: &Pool) -> (usize, usize) {
        let sc = pool.shared.wave_scratch.lock();
        (
            sc.completed.load(Ordering::Relaxed),
            sc.kept.load(Ordering::Relaxed),
        )
    }

    /// Regression: the pipelined queue's counts, slots and tallies must
    /// re-initialize on every `waves` call, including a *smaller* grid
    /// reusing scratch that still holds the previous run's state — a
    /// stale non-zero slot inside the new prefix would release a wrong
    /// (or out-of-bounds) task id. Every task becomes ready once, and is
    /// then either published or kept by the worker that readied it.
    #[test]
    fn wave_scratch_resets_across_reuse() {
        let pool = Pool::new(4);
        let run = |nb: usize, nc: usize| {
            let hits: Vec<AtomicUsize> = (0..nb * nc).map(|_| AtomicUsize::new(0)).collect();
            pool.waves(nb, nc, |b, i| {
                hits[b * nc + i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every task runs exactly once at {nb}x{nc}"
            );
        };
        for &(nb, nc) in &[(5usize, 7usize), (3, 3), (5, 7), (2, 2)] {
            run(nb, nc);
            let total = nb * nc;
            let (counts, slots, cursor) = scratch_state(&pool, total);
            // Every task was released, so every predecessor count
            // drained to zero.
            assert!(
                counts.iter().all(|&c| c == 0),
                "{nb}x{nc}: counts {counts:?}"
            );
            // The published ids fill the slots below the cursor, each a
            // task of the grid (stored off-by-one), none twice.
            assert!(
                slots[..cursor].iter().all(|&s| (1..=total).contains(&s))
                    && slots[cursor..].iter().all(|&s| s == 0),
                "{nb}x{nc}: slots {slots:?} cursor {cursor}"
            );
            let mut published = slots[..cursor].to_vec();
            published.sort_unstable();
            published.dedup();
            assert_eq!(published.len(), cursor, "{nb}x{nc}: slots {slots:?}");
            let (completed, kept) = tallies(&pool);
            assert_eq!(cursor + kept, total, "{nb}x{nc}: published + kept");
            assert_eq!(completed, total, "{nb}x{nc}: completed");
        }
    }

    /// Extract the human-readable message of a caught panic payload.
    fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>")
    }

    /// Containment on the parallel-for surface: the first panic is
    /// re-thrown to the caller with its original payload, no index runs
    /// twice, and the same pool instance completes the next region.
    #[test]
    fn for_each_panic_propagates_and_pool_survives() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_index(64, |i| {
                    if i == 17 {
                        panic!("boom-index");
                    }
                });
            }))
            .expect_err("panic must propagate to the dispatching caller");
            assert_eq!(payload_str(&*err), "boom-index", "threads={threads}");
            // Survival: full single coverage on the next region.
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_index(64, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    /// Containment in the wavefront: an injected task panic
    /// neither deadlocks peers (the dead task's successors are released
    /// but skipped) nor poisons the pool — the next wavefront on the same
    /// pool reproduces the sequential dataflow bitwise.
    #[test]
    fn wave_panic_drains_and_next_job_is_bitwise_correct() {
        let (nb, nc) = (4usize, 5usize);
        let mix = |a: u64, b: u64, c: u64, t: u64| {
            splitmix(a ^ b.rotate_left(17) ^ c.rotate_left(34) ^ t)
        };
        // Sequential gold for the dataflow check after recovery.
        let mut gold = vec![0u64; nb * nc];
        for b in 0..nb {
            for i in 0..nc {
                let left = if i > 0 { gold[b * nc + i - 1] } else { 7 };
                let below = if b > 0 { gold[(b - 1) * nc + i] } else { 11 };
                let right = if b > 0 && i + 1 < nc {
                    gold[(b - 1) * nc + i + 1]
                } else {
                    13
                };
                gold[b * nc + i] = mix(left, below, right, (b * nc + i) as u64);
            }
        }
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.waves(nb, nc, |b, i| {
                    if (b, i) == (2, 3) {
                        panic!("boom-wave");
                    }
                });
            }))
            .expect_err("panic must propagate out of waves");
            assert_eq!(payload_str(&*err), "boom-wave", "threads={threads}");
            if threads > 1 {
                // The ready queue must be reset to a clean reusable
                // state, not left mid-flight.
                let (counts, slots, cursor) = scratch_state(&pool, nb * nc);
                assert!(counts.iter().all(|&c| c == 0), "counts {counts:?}");
                assert!(slots.iter().all(|&s| s == 0), "slots {slots:?}");
                assert_eq!(cursor, 0);
            }
            // Survival: the next job on the same pool is bitwise
            // identical to the sequential reference.
            let mut cells = vec![0u64; nb * nc];
            let shared = SyncSlice::new(&mut cells);
            pool.waves(nb, nc, |b, i| {
                // SAFETY: task (b, i) writes only cell b*nc+i and
                // reads only predecessor cells, whose tasks completed
                // before this one was released (the waves dependence
                // contract).
                let cells = unsafe { shared.slice_mut() };
                let left = if i > 0 { cells[b * nc + i - 1] } else { 7 };
                let below = if b > 0 { cells[(b - 1) * nc + i] } else { 11 };
                let right = if b > 0 && i + 1 < nc {
                    cells[(b - 1) * nc + i + 1]
                } else {
                    13
                };
                cells[b * nc + i] = mix(left, below, right, (b * nc + i) as u64);
            });
            assert_eq!(cells, gold, "threads={threads}");
        }
    }

    /// The opt-in watchdog: a wavefront in which no task completes (here:
    /// one task sleeping far past the timeout on a fully serial
    /// dependence chain) panics with a task-graph snapshot instead of
    /// spinning forever, and the pool survives to run the next job.
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog is meaningless under miri")]
    fn watchdog_converts_stall_into_panic() {
        let pool = Pool::with_config(
            PoolConfig::new(4).stall_timeout(std::time::Duration::from_millis(50)),
        );
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.waves(1, 16, |_b, i| {
                if i == 0 {
                    // Holds back every successor: the other claimers see
                    // zero cursor progress for >> stall_timeout.
                    std::thread::sleep(std::time::Duration::from_millis(600));
                }
            });
        }))
        .expect_err("watchdog must fire");
        let msg = payload_str(&*err);
        assert!(
            msg.contains("wavefront stalled"),
            "unexpected message: {msg}"
        );
        assert!(msg.contains("1x16 grid"), "unexpected message: {msg}");
        // Survival: the same pool completes the next wavefront.
        let count = AtomicUsize::new(0);
        pool.waves(1, 16, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    /// The watchdog's heartbeat is completed tasks, not publication: a
    /// serial chain of slow tasks, each kept by the worker that ran the
    /// one before and never published, completes under a watchdog far
    /// shorter than the chain.
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog is meaningless under miri")]
    fn watchdog_spares_a_chain_of_kept_continuations() {
        let pool = Pool::with_config(
            PoolConfig::new(4).stall_timeout(std::time::Duration::from_millis(50)),
        );
        let count = AtomicUsize::new(0);
        pool.waves(1, 16, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    /// A tiny deterministic PRNG (splitmix64) for the adversarial
    /// release orders; no external crates, stable across platforms.
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// The adversarial wavefront harness (the dynamic complement of the
    /// static orderings audit): deterministically perturb each task's
    /// completion time with a seeded busy delay — which permutes the
    /// dependence-counter queue's release order — and assert that the
    /// pipeline still computes the exact same dataflow result as the
    /// sequential reference.
    ///
    /// Each task `(b, i)` writes one cell from its three predecessors'
    /// cells, so any missing happens-before edge in the queue (a stale
    /// read of a predecessor cell) changes the output bitwise.
    #[test]
    fn waves_adversarial_release_orders_agree_bitwise() {
        // Miri executes ~1000x slower and already explores its own
        // interleavings; shrink the sweep.
        let (grids, seeds): (&[(usize, usize)], u64) = if cfg!(miri) {
            (&[(3, 4)], 2)
        } else {
            (&[(5, 7), (2, 9), (8, 3)], 6)
        };
        let mix = |a: u64, b: u64, c: u64, t: u64| {
            splitmix(a ^ b.rotate_left(17) ^ c.rotate_left(34) ^ t)
        };
        for &(nb, nc) in grids {
            // Sequential reference for the dataflow value of each cell.
            let mut gold = vec![0u64; nb * nc];
            for b in 0..nb {
                for i in 0..nc {
                    let left = if i > 0 { gold[b * nc + i - 1] } else { 7 };
                    let below = if b > 0 { gold[(b - 1) * nc + i] } else { 11 };
                    let right = if b > 0 && i + 1 < nc {
                        gold[(b - 1) * nc + i + 1]
                    } else {
                        13
                    };
                    gold[b * nc + i] = mix(left, below, right, (b * nc + i) as u64);
                }
            }
            for threads in [2usize, 4, 8] {
                let pool = Pool::new(threads);
                for seed in 0..seeds {
                    let mut cells = vec![0u64; nb * nc];
                    let shared = SyncSlice::new(&mut cells);
                    pool.waves(nb, nc, |b: usize, i: usize| {
                        // Seeded perturbation: stall this task so its
                        // successors' releases happen in a different
                        // order on every (seed, b, i).
                        let delay = splitmix(seed ^ ((b * nc + i) as u64) << 8) % 500;
                        for _ in 0..delay {
                            std::hint::spin_loop();
                        }
                        // SAFETY: task (b, i) writes only cell
                        // b*nc+i and reads only predecessor cells,
                        // whose tasks completed before this one was
                        // released (the waves dependence contract).
                        let cells = unsafe { shared.slice_mut() };
                        let left = if i > 0 { cells[b * nc + i - 1] } else { 7 };
                        let below = if b > 0 { cells[(b - 1) * nc + i] } else { 11 };
                        let right = if b > 0 && i + 1 < nc {
                            cells[(b - 1) * nc + i + 1]
                        } else {
                            13
                        };
                        cells[b * nc + i] = mix(left, below, right, (b * nc + i) as u64);
                    });
                    assert_eq!(cells, gold, "{nb}x{nc} threads={threads} seed={seed}");
                }
            }
        }
    }
}
