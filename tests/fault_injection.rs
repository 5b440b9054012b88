//! Failpoint-driven fault-injection tests (run with `--features failpoints`).
//!
//! Each test arms a deterministic failpoint (see `tempora_failpoint`),
//! drives a real workload into it, and then proves the *containment
//! contract* of the layer under test:
//!
//! * the worker pool survives an injected task panic — the wavefront
//!   drains without deadlock and the next job on the same pool is
//!   bitwise-identical to the sequential reference;
//! * a `Plan` whose run panics is poisoned — every later `run` returns
//!   [`PlanError::Poisoned`] without touching the state — and after
//!   `Plan::reset` it produces bitwise the same results as a fresh plan;
//! * construction-time injections (worker spawn, `fault_in`, arena
//!   allocation) fail the constructor cleanly and leave the process
//!   healthy.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`fp_guard`] and starts from a cleared registry.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};

use tempora::grid::{fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life};
use tempora::parallel::{Pool, PoolConfig, SyncSlice};
use tempora::prelude::*;
use tempora_failpoint as fp;

/// Serialize tests on the process-global failpoint registry, and leave it
/// disarmed on entry and exit (even when the test body panics).
// Justification: the lock is never read — it is held only so Drop
// releases it (and clears the registry) at end of scope.
struct FpGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

fn fp_guard() -> FpGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    let g = lock.lock().unwrap_or_else(PoisonError::into_inner);
    fp::clear();
    FpGuard(g)
}

impl Drop for FpGuard {
    fn drop(&mut self) {
        fp::clear();
    }
}

/// Render a caught panic payload for assertions.
fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// A fresh state for `problem` with a deterministic fill.
fn fresh_state(problem: &Problem, seed: u64) -> State {
    let mut state = problem.state();
    match &mut state {
        State::Grid1(g) => fill_random_1d(g, seed, -1.0, 1.0),
        State::Grid2(g) => fill_random_2d(g, seed, -1.0, 1.0),
        State::Grid2i(g) => fill_random_life(g, seed, 0.4),
        State::Grid3(g) => fill_random_3d(g, seed, -1.0, 1.0),
        State::Lcs(l) => {
            let (la, lb) = (l.a.len(), l.b.len());
            l.a = vec![1; la];
            l.b = vec![1; lb];
        }
    }
    state
}

fn states_equal(a: &State, b: &State) -> bool {
    match (a, b) {
        (State::Grid1(x), State::Grid1(y)) => x.interior_eq(y),
        (State::Grid2(x), State::Grid2(y)) => x.interior_eq(y),
        (State::Grid2i(x), State::Grid2i(y)) => x.interior_eq(y),
        (State::Grid3(x), State::Grid3(y)) => x.interior_eq(y),
        (State::Lcs(x), State::Lcs(y)) => x.length == y.length,
        _ => false,
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// An injected panic in one `(band, block)` wavefront task neither
/// deadlocks nor aborts the pool, at every thread count, pinned or not;
/// the next job on the same pool is bitwise-identical to the sequential
/// dataflow reference.
#[test]
fn wave_task_injection_is_contained_and_pool_is_reusable() {
    let _g = fp_guard();
    let (nb, nc) = (4usize, 5usize);
    let mix =
        |a: u64, b: u64, c: u64, t: u64| splitmix(a ^ b.rotate_left(17) ^ c.rotate_left(34) ^ t);
    // Sequential gold for the post-recovery dataflow check.
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
        for pin in [false, true] {
            let pool = Pool::with_config(PoolConfig::new(threads).pin(pin));
            // Target one exact task by its instance key: deterministic
            // at any thread count because the key names the task.
            fp::arm("wave_task:2:3=panic@1");
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.waves(nb, nc, |_, _| {});
            }))
            .expect_err("injected panic must propagate out of waves");
            assert_eq!(
                payload_str(&*err),
                "failpoint `wave_task:2:3` injected panic on hit 1",
                "threads={threads} pin={pin}"
            );
            fp::clear();
            // Survival: same pool, full wavefront, bitwise dataflow.
            let mut cells = vec![0u64; nb * nc];
            let shared = SyncSlice::new(&mut cells);
            pool.waves(nb, nc, |b, i| {
                // SAFETY: task (b, i) writes only cell b*nc+i and reads
                // only predecessor cells, whose tasks completed before
                // this one was released (the waves dependence contract).
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
            assert_eq!(cells, gold, "threads={threads} pin={pin}");
        }
    }
}

/// An injected panic in one indexed task surfaces from `for_each_index` /
/// `for_each_owned` and the pool then covers a full region exactly once.
#[test]
fn for_each_injection_surfaces_and_pool_survives() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _g = fp_guard();
    for threads in [1usize, 2, 4, 8] {
        for owned in [false, true] {
            let pool = Pool::new(threads);
            fp::arm("pool_task:17=panic@1");
            let run = |n: usize, f: &(dyn Fn(usize) + Sync)| {
                if owned {
                    pool.for_each_owned(n, f);
                } else {
                    pool.for_each_index(n, f);
                }
            };
            let err = catch_unwind(AssertUnwindSafe(|| run(64, &|_| {})))
                .expect_err("injected panic must propagate out of for_each");
            assert_eq!(
                payload_str(&*err),
                "failpoint `pool_task:17` injected panic on hit 1",
                "threads={threads} owned={owned}"
            );
            fp::clear();
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            run(64, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads} owned={owned}: region not covered exactly once"
            );
        }
    }
}

/// A panic during worker start-up propagates out of pool construction
/// instead of leaving a half-built pool (or a detached worker) behind.
#[test]
fn worker_spawn_injection_fails_pool_construction_cleanly() {
    let _g = fp_guard();
    fp::arm("pool_worker_spawn=panic@1");
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _pool = Pool::new(4);
    }))
    .expect_err("spawn-time panic must propagate out of Pool construction");
    assert!(
        payload_str(&*err).contains("failpoint `pool_worker_spawn`"),
        "unexpected payload: {}",
        payload_str(&*err)
    );
    fp::clear();
    // The process is healthy: a new pool builds and runs.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let pool = Pool::new(4);
    let count = AtomicUsize::new(0);
    pool.for_each_owned(32, |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 32);
}

/// A panic inside `fault_in` (first-touch page faulting of the tile
/// arenas) escapes `PlanBuilder::build` cleanly; the same builder then
/// succeeds once disarmed, and the resulting plan matches a one-shot run.
#[test]
fn fault_in_injection_fails_build_and_next_build_succeeds() {
    let _g = fp_guard();
    let problem = Problem::heat1d(300, 13, Heat1dCoeffs::classic(0.24));
    let builder = PlanBuilder::new()
        .stride(3)
        .tiling(Tiling::Ghost {
            block: 48,
            height: 4,
        })
        .threads(2);
    fp::arm("fault_in=panic@1");
    let err = catch_unwind(AssertUnwindSafe(|| builder.build(&problem)))
        .expect_err("fault_in panic must propagate out of build");
    assert!(
        payload_str(&*err).contains("failpoint `fault_in`"),
        "unexpected payload: {}",
        payload_str(&*err)
    );
    fp::clear();
    let mut plan = builder.build(&problem).expect("disarmed build succeeds");
    let mut a = fresh_state(&problem, 99);
    let mut b = fresh_state(&problem, 99);
    plan.run(&mut a).expect("disarmed run succeeds");
    builder
        .build(&problem)
        .expect("one-shot build succeeds")
        .run(&mut b)
        .expect("one-shot run succeeds");
    assert!(states_equal(&a, &b));
}

/// `fault_in` re-allocates the scratch arenas from pool workers; on a
/// one-thread pool the only worker is the thread that allocated them, so
/// the build must not pay for it — untiled builds above all, which are
/// one-thread tiled builds.
#[test]
fn fault_in_runs_only_on_multi_thread_pools() {
    let _g = fp_guard();
    let problem = Problem::heat2d(48, 17, 9, Heat2dCoeffs::classic(0.11));
    let ghost = Tiling::Ghost {
        block: 12,
        height: 4,
    };
    for (tiling, threads, expect) in [(Tiling::None, 1, 0), (ghost, 1, 0), (ghost, 2, 1)] {
        // Armed far beyond reach: the directive only counts hits.
        fp::arm("fault_in=panic@1000");
        PlanBuilder::new()
            .tiling(tiling)
            .threads(threads)
            .build(&problem)
            .expect("build succeeds");
        assert_eq!(fp::hits("fault_in"), expect, "{tiling:?} x{threads}");
    }
}

/// A panic at the single arena-allocation funnel escapes state
/// construction cleanly and the process stays healthy.
#[test]
fn arena_alloc_injection_is_contained() {
    let _g = fp_guard();
    let problem = Problem::heat1d(200, 9, Heat1dCoeffs::classic(0.2));
    fp::arm("arena_alloc=panic@1");
    let err = catch_unwind(AssertUnwindSafe(|| problem.state()))
        .expect_err("allocation panic must propagate out of state construction");
    assert!(
        payload_str(&*err).contains("failpoint `arena_alloc`"),
        "unexpected payload: {}",
        payload_str(&*err)
    );
    fp::clear();
    let mut plan = PlanBuilder::new().stride(3).build(&problem).expect("build");
    let mut state = fresh_state(&problem, 5);
    plan.run(&mut state).expect("run after recovery");
}

/// A plan whose run panics is poisoned: every later `run` returns
/// [`PlanError::Poisoned`] without executing, `Plan::reset` clears the
/// poison, and the reset plan is bitwise-identical to a fresh one — for
/// both grid tilings (one wavefront of in-place sweeps each), pinned and
/// unpinned.
#[test]
fn poisoned_plan_returns_poisoned_until_reset_and_reset_matches_fresh() {
    let _g = fp_guard();
    let h1 = Problem::heat1d(300, 13, Heat1dCoeffs::classic(0.24));
    let g1 = Problem::gs1d(400, 11, Gs1dCoeffs::classic(0.22));
    let ghost = |pin: bool| {
        PlanBuilder::new()
            .stride(3)
            .tiling(Tiling::Ghost {
                block: 48,
                height: 4,
            })
            .threads(2)
            .pin(pin)
    };
    let skew = |pin: bool| {
        PlanBuilder::new()
            .stride(2)
            .tiling(Tiling::Skew {
                block: 64,
                height: 4,
            })
            .threads(2)
            .pin(pin)
    };
    let configs: Vec<(&str, &Problem, PlanBuilder)> = vec![
        ("heat1d/ghost", &h1, ghost(false)),
        ("heat1d/ghost/pinned", &h1, ghost(true)),
        ("gs1d/skew/pinned", &g1, skew(true)),
        ("gs1d/skew", &g1, skew(false)),
    ];
    for (name, problem, builder) in configs {
        // Gold: a fresh plan over a fresh state.
        let mut gold = fresh_state(problem, 1234);
        builder
            .build(problem)
            .expect("gold build")
            .run(&mut gold)
            .expect("gold run");

        // Victim: build first (fault_in runs the pool), then arm the
        // wavefront's task site, the one a tiled run dispatches.
        let mut plan = builder.build(problem).expect("victim build");
        fp::arm("wave_task=panic@1");
        let mut state = fresh_state(problem, 1234);
        let err = plan
            .run(&mut state)
            .expect_err("injected panic must poison the plan");
        match &err {
            PlanError::Poisoned { panic } => {
                assert!(panic.contains("injected panic"), "{name}: {panic}")
            }
            other => panic!("{name}: expected Poisoned, got {other:?}"),
        }
        assert!(plan.is_poisoned(), "{name}");
        assert!(fp::hits("wave_task") >= 1, "{name}");

        // Still poisoned on the next run, with no execution behind it.
        let mut again = fresh_state(problem, 1234);
        assert!(
            matches!(plan.run(&mut again), Err(PlanError::Poisoned { .. })),
            "{name}: second run must short-circuit"
        );

        // Recovery: disarm, re-initialize the state, reset, run — bitwise
        // identical to the fresh-plan gold.
        fp::clear();
        let mut recovered = fresh_state(problem, 1234);
        plan.reset(&mut recovered).expect("reset accepts the state");
        assert!(!plan.is_poisoned(), "{name}");
        plan.run(&mut recovered).expect("run after reset");
        assert!(states_equal(&recovered, &gold), "{name}: reset != fresh");
    }
}

/// Run `builder`'s plan for `problem` at 2 and 4 threads with one task of
/// the wavefront stalled (`wave_task:<sweep>:<chunk>=sleep:…`), so the
/// interleaving the name describes is forced rather than hoped for, and
/// require bitwise agreement with the untiled single-thread plan.
fn stalled_wavefront_matches_untiled(problem: &Problem, builder: PlanBuilder, stalled: &str) {
    let mut gold = fresh_state(problem, 77);
    PlanBuilder::new()
        .build(problem)
        .expect("untiled build")
        .run(&mut gold)
        .expect("untiled run");
    for threads in [2usize, 4] {
        let mut plan = builder
            .threads(threads)
            .build(problem)
            .expect("tiled build");
        fp::arm(&format!("{stalled}=sleep:150@1"));
        let mut state = fresh_state(problem, 77);
        plan.run(&mut state).expect("stalled run");
        assert_eq!(fp::hits(stalled), 1, "{stalled} never ran");
        fp::clear();
        assert!(
            states_equal(&state, &gold),
            "{stalled} stalled, threads={threads}"
        );
    }
}

/// The leading sweep stalls in its third chunk: the sweep behind it has
/// chunk 0 to run and then must wait on `(p-1, c+1)` — if it did not, it
/// would read slabs the leading sweep has not produced.
#[test]
fn trailing_sweep_waits_for_a_stalled_leading_sweep() {
    let _g = fp_guard();
    // 3 vector sweeps + 1 scalar × 4 chunks (x_max = 57, chunk = 16).
    let problem = Problem::heat2d(64, 16, 13, Heat2dCoeffs::classic(0.11));
    let builder = PlanBuilder::new().stride(2).tiling(Tiling::Ghost {
        block: 16,
        height: 4,
    });
    stalled_wavefront_matches_untiled(&problem, builder, "wave_task:0:2");
}

/// More sweeps than chunks, so scratch slots are reused (`slots = 2`):
/// sweep 1 stalls in its last chunk while sweep 3, which takes over its
/// slot, and sweep 2, which reads what it writes, are ready to go.
#[test]
fn stalled_trailing_sweep_keeps_its_scratch_slot() {
    let _g = fp_guard();
    // 4 vector sweeps + 2 scalar × 2 chunks (x_max = 33, chunk = 20).
    let problem = Problem::gs2d(40, 11, 18, Gs2dCoeffs::classic(0.17));
    let builder = PlanBuilder::new().stride(2).tiling(Tiling::Skew {
        block: 20,
        height: 4,
    });
    stalled_wavefront_matches_untiled(&problem, builder, "wave_task:1:1");
}

/// The `TEMPORA_FAILPOINT` environment syntax arms the same registry the
/// programmatic API uses.
#[test]
fn env_variable_syntax_arms_failpoints() {
    let _g = fp_guard();
    std::env::set_var("TEMPORA_FAILPOINT", "pool_task:2=panic@1");
    fp::reload_from_env();
    std::env::remove_var("TEMPORA_FAILPOINT");
    let pool = Pool::new(1);
    let err = catch_unwind(AssertUnwindSafe(|| pool.for_each_owned(4, |_| {})))
        .expect_err("env-armed failpoint must fire");
    assert_eq!(
        payload_str(&*err),
        "failpoint `pool_task:2` injected panic on hit 1"
    );
    assert_eq!(fp::hits("pool_task:2"), 1);
    fp::clear();
    pool.for_each_owned(4, |_| {});
}

/// A threaded tiled spec: every run dispatches one wavefront of
/// `wave_task` sites, so a failpoint can poison its plan, or a `sleep`
/// hold it while other requests arrive.
fn ghost_tiled_spec() -> tempora::proto::JobSpec {
    let mut spec =
        tempora::proto::JobSpec::new(Problem::heat1d(300, 13, Heat1dCoeffs::classic(0.24)));
    spec.config.stride = Some(3);
    spec.config.tiling = Tiling::Ghost {
        block: 48,
        height: 4,
    };
    spec.config.threads = 2;
    spec
}

/// The plan-cache × poisoning interaction (PR 9): an injected panic
/// inside a *cached* plan's run must poison only that entry. The next
/// request for the same key gets a reset plan — zero rebuilds, bitwise
/// identical to a fresh in-process plan — and unrelated entries never
/// notice.
#[test]
fn cached_plan_poisoning_is_per_entry_and_recovers() {
    use tempora::proto::{state_digest, JobSpec, Tiling as ProtoTiling};
    use tempora::server::{CacheConfig, PlanCache, ServeError};

    let _g = fp_guard();
    // Spec A: threaded tiled heat — its run drives the wave task sites
    // the failpoint arms. Spec B: a different key entirely.
    let spec_a = ghost_tiled_spec();
    let mut spec_b = JobSpec::new(Problem::gs1d(400, 11, Gs1dCoeffs::classic(0.22)));
    spec_b.config.stride = Some(2);
    spec_b.config.tiling = ProtoTiling::Skew {
        block: 64,
        height: 4,
    };
    spec_b.config.threads = 2;
    let seed = 1234u64;

    // Gold digests: fresh plans run in-process over the same
    // deterministic fill the server uses.
    let gold = |spec: &JobSpec| {
        let mut state = tempora::server::fresh_state(&spec.problem, seed);
        spec.config
            .plan_builder()
            .build(&spec.problem)
            .expect("gold build")
            .run(&mut state)
            .expect("gold run");
        state_digest(&state)
    };
    let gold_a = gold(&spec_a);
    let gold_b = gold(&spec_b);

    let cache = PlanCache::new(CacheConfig::default());
    assert_eq!(cache.run(&spec_a, seed).expect("warm A").digest, gold_a);
    assert_eq!(cache.run(&spec_b, seed).expect("warm B").digest, gold_b);
    assert_eq!(cache.stats().builds, 2);

    // Inject: A's next run panics inside the pool and poisons A's entry.
    fp::arm("wave_task=panic@1");
    match cache.run(&spec_a, seed) {
        Err(ServeError::Poisoned(panic)) => {
            assert!(panic.contains("injected panic"), "{panic}")
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    fp::clear();

    // B's entry never noticed: still a hit, still one build, same bits.
    let b = cache.run(&spec_b, seed).expect("B after A poisoned");
    assert!(b.cache_hit, "B must be unaffected by A's poisoning");
    assert_eq!(b.plan_builds, 1);
    assert_eq!(b.resets, 0);
    assert_eq!(b.digest, gold_b);

    // A recovers by reset, not rebuild, and matches the fresh plan
    // bitwise.
    let a = cache.run(&spec_a, seed).expect("A recovers");
    assert!(a.cache_hit);
    assert_eq!(a.plan_builds, 1, "recovery must not rebuild");
    assert_eq!(a.resets, 1, "recovery goes through Plan::reset");
    assert_eq!(a.digest, gold_a, "reset plan != fresh plan");

    let stats = cache.stats();
    assert_eq!(stats.poison_resets, 1);
    assert_eq!(stats.builds, 2, "whole scenario: exactly two builds");
}

/// Admission is bounded before anyone blocks: with `max_queue_depth = d`
/// and the entry's plan held, `d + k` simultaneous requests admit exactly
/// `d` (which all complete, in turn) and shed exactly `k` with `Busy`.
#[test]
fn held_entry_admits_its_bound_and_sheds_the_rest() {
    use tempora::server::{CacheConfig, PlanCache, ServeError};

    let _g = fp_guard();
    let (d, k) = (3usize, 2usize);
    let cache = PlanCache::new(CacheConfig {
        max_queue_depth: d,
        ..CacheConfig::default()
    });
    let spec = ghost_tiled_spec();
    let gold = cache.run(&spec, 5).expect("warm").digest;
    // The first admitted request sleeps inside its run, holding the plan
    // while the other threads leave the barrier and reach admission.
    fp::arm("wave_task=sleep:500@1");
    let barrier = std::sync::Barrier::new(d + k);
    let replies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..d + k)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    cache.run(&spec, 5)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no request thread panics"))
            .collect()
    });
    fp::clear();
    let shed = replies
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Busy { .. })))
        .count();
    assert_eq!(shed, k, "{replies:?}");
    assert_eq!(cache.stats().shed, k as u64);
    let served: Vec<_> = replies.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(served.len(), d, "{replies:?}");
    for r in &served {
        assert_eq!(r.digest, gold);
        assert!((1..=d as u32).contains(&r.batched), "{r:?}");
    }
    assert_eq!(served.iter().map(|r| r.batched).max(), Some(d as u32));
    // Every place was given back: the entry is empty again.
    assert_eq!(cache.run(&spec, 5).expect("after the burst").batched, 1);
}

/// A panic between admission and run — the allocation inside
/// `fresh_state` — unwinds through `PlanCache::run` without leaking the
/// request's place: with a bound of one, the next request is admitted and
/// runs on the same plan.
#[test]
fn panic_after_admission_gives_the_place_back() {
    use tempora::server::{CacheConfig, PlanCache};

    let _g = fp_guard();
    let cache = PlanCache::new(CacheConfig {
        max_queue_depth: 1,
        ..CacheConfig::default()
    });
    let spec = ghost_tiled_spec();
    let gold = cache.run(&spec, 5).expect("warm").digest;
    fp::arm("arena_alloc=panic@1");
    let err = catch_unwind(AssertUnwindSafe(|| cache.run(&spec, 5)))
        .expect_err("the allocation panic unwinds out of run");
    assert!(
        payload_str(&*err).contains("failpoint `arena_alloc`"),
        "unexpected payload: {}",
        payload_str(&*err)
    );
    fp::clear();
    let next = cache.run(&spec, 5).expect("the entry admits again");
    assert_eq!(next.batched, 1);
    assert!(next.cache_hit);
    assert_eq!(next.plan_builds, 1, "same plan, no rebuild");
    assert_eq!(next.digest, gold);
    assert_eq!(cache.stats().shed, 0);
}
