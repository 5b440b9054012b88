//! The sharded concurrent plan cache.
//!
//! # Interning
//!
//! Compiled [`Plan`]s are interned by [`SpecKey`] — the canonical bytes
//! of problem *and* solver configuration — across a fixed array of
//! shards, each an independent `Mutex<HashMap>`. Shard locks guard only
//! map lookups (never a build or a run), so concurrent requests for
//! *different* problems don't serialize on each other. Each shard holds
//! at most `capacity / shards` entries; inserting beyond that evicts the
//! least-recently-used entry of that shard. In-flight requests keep the
//! evicted entry alive through their `Arc` — eviction only unlinks it
//! from the map.
//!
//! # Serialisation and admission
//!
//! A plan runs one state at a time, so requests for the same entry take
//! turns on the entry's slot mutex: lock, build if empty, run, reply.
//! How many may hold or wait for that mutex is bounded before anyone
//! blocks on it: each entry counts its admitted requests, a request that
//! finds [`CacheConfig::max_queue_depth`] of them already there is shed
//! with [`ServeError::Busy`], and a drop guard gives the place back when
//! the request returns or unwinds. The count a request saw on admission,
//! itself included, is its [`tempora_proto::RunReply::batched`].
//!
//! # Poisoning
//!
//! A panic inside a cached plan's run (PR 8's failure model) returns
//! [`PlanError::Poisoned`] and marks *only that entry's* plan. The
//! poisoned run's own request gets [`ServeError::Poisoned`]; the **next**
//! request for the same key finds `Plan::is_poisoned()`, calls
//! [`Plan::reset`] against its fresh state, and runs — bitwise identical
//! to a fresh build (pinned by `tests/fault_injection.rs`). If even the
//! reset run fails, the plan is dropped from the slot so the following
//! request rebuilds from scratch. A poisoned plan is never served as-is.

use crate::fill::fresh_state;
use crate::ServeError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tempora_plan::{Plan, PlanError};
use tempora_proto::{state_digest, JobSpec, RunReply, SpecKey};

/// Lock a std mutex, continuing through lock poisoning: every critical
/// section below leaves the guarded data consistent even if a holder
/// panicked (worst case a `None` plan slot, which rebuilds).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cache shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of independent shards (lock granularity).
    pub shards: usize,
    /// Total cached-plan capacity across all shards.
    pub capacity: usize,
    /// Per-entry admission bound: a `run` arriving while this many
    /// requests already hold or wait for the same entry's plan is
    /// **shed** with [`ServeError::Busy`] instead of queueing unbounded
    /// work. `0` sheds everything (a test hook).
    pub max_queue_depth: usize,
    /// The `retry_after_ms` hint carried by shed replies.
    pub busy_retry_ms: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            capacity: 64,
            max_queue_depth: 64,
            busy_retry_ms: 25,
        }
    }
}

/// Monotonic cache counters (all `Relaxed`: they are statistics, never
/// used to order memory accesses).
#[derive(Default, Debug)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    poison_resets: AtomicU64,
    evictions: AtomicU64,
    shed: AtomicU64,
}

/// A point-in-time copy of the cache's internal counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Lookups that found an interned entry.
    pub hits: u64,
    /// Lookups that inserted a fresh entry.
    pub misses: u64,
    /// `PlanBuilder::build` invocations.
    pub builds: u64,
    /// Poison recoveries via `Plan::reset`.
    pub poison_resets: u64,
    /// Entries unlinked by LRU pressure.
    pub evictions: u64,
    /// Runs shed with `Busy` because an entry's admission bound was hit.
    pub shed: u64,
    /// Connections accepted by the network layer (zero for a bare
    /// cache; merged in by `Server::stats`).
    pub conns_opened: u64,
    /// Connections rejected at admission (`Busy` before spawn).
    pub conns_rejected: u64,
    /// Connections cut for stalling mid-frame (`DeadlineExceeded`).
    pub deadline_closes: u64,
    /// Connections reaped for sitting idle past the idle timeout.
    pub idle_closes: u64,
    /// `GoingAway` farewells sent while draining.
    pub going_away: u64,
}

impl CacheStats {
    fn snapshot(&self) -> StatsSnapshot {
        // Relaxed throughout: independent monotonic counters read for
        // reporting; no cross-counter consistency is promised.
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed), // Relaxed: reporting
            misses: self.misses.load(Ordering::Relaxed), // Relaxed: reporting
            builds: self.builds.load(Ordering::Relaxed), // Relaxed: reporting
            poison_resets: self.poison_resets.load(Ordering::Relaxed), // Relaxed: reporting
            evictions: self.evictions.load(Ordering::Relaxed), // Relaxed: reporting
            shed: self.shed.load(Ordering::Relaxed), // Relaxed: reporting
            // Network-layer counters live on the server, not the cache.
            conns_opened: 0,
            conns_rejected: 0,
            deadline_closes: 0,
            idle_closes: 0,
            going_away: 0,
        }
    }
}

/// One interned spec: its compiled plan (the slot) and the count of
/// requests admitted to it.
struct Entry {
    spec: JobSpec,
    /// LRU tick of the last lookup. Relaxed: an approximate recency
    /// order is all eviction needs.
    last_used: AtomicU64,
    builds: AtomicU64,
    resets: AtomicU64,
    /// Requests holding or waiting for `slot`; never above the cache's
    /// `max_queue_depth`.
    admitted: AtomicUsize,
    slot: Mutex<Option<Plan>>,
}

/// One request's place among an entry's admitted requests, given back
/// on drop — also when `fresh_state` or a failpoint unwinds through
/// [`PlanCache::run`].
struct Admission<'e>(&'e Entry);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        // Relaxed: the count only bounds admission; the plan itself is
        // ordered by the slot mutex.
        self.0.admitted.fetch_sub(1, Ordering::Relaxed);
    }
}

type Shard = Mutex<HashMap<SpecKey, Arc<Entry>>>;

/// The sharded concurrent plan cache. See the module docs.
pub struct PlanCache {
    shards: Vec<Shard>,
    per_shard_cap: usize,
    max_queue_depth: usize,
    busy_retry_ms: u32,
    clock: AtomicU64,
    stats: CacheStats,
}

impl PlanCache {
    /// An empty cache with `config`'s shape.
    #[must_use]
    pub fn new(config: CacheConfig) -> PlanCache {
        let shards = config.shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap: (config.capacity / shards).max(1),
            max_queue_depth: config.max_queue_depth,
            busy_retry_ms: config.busy_retry_ms,
            clock: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Interned entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Find or intern the entry for `spec`, bumping LRU recency and the
    /// hit/miss counters, evicting the shard's LRU entry on overflow.
    fn entry(&self, spec: &JobSpec) -> (Arc<Entry>, bool) {
        let key = spec.key();
        let shard = &self.shards[(key.hash64() as usize) % self.shards.len()];
        // Relaxed: the tick only orders evictions approximately.
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = lock(shard);
        if let Some(entry) = map.get(&key) {
            // Relaxed: recency bookkeeping only.
            entry.last_used.store(now, Ordering::Relaxed);
            self.stats.hits.fetch_add(1, Ordering::Relaxed); // Relaxed: statistic
            return (Arc::clone(entry), true);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed); // Relaxed: statistic
        if map.len() >= self.per_shard_cap {
            // Relaxed: same recency bookkeeping as above.
            let lru = map
                .iter()
                // Relaxed: recency bookkeeping only.
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                map.remove(&lru);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed); // Relaxed: statistic
            }
        }
        let entry = Arc::new(Entry {
            spec: *spec,
            last_used: AtomicU64::new(now),
            builds: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            admitted: AtomicUsize::new(0),
            slot: Mutex::new(None),
        });
        map.insert(key, Arc::clone(&entry));
        (entry, false)
    }

    /// Intern `spec` and compile its plan without running it (the
    /// `SubmitProblem` path). The reply carries `steps == 0` and the
    /// entry's build counters.
    pub fn prepare(&self, spec: &JobSpec) -> Result<RunReply, ServeError> {
        let start = Instant::now();
        let (entry, map_hit) = self.entry(spec);
        let mut slot = lock(&entry.slot);
        let built_now = slot.is_none();
        let plan = self.ensure_plan(&entry, &mut slot)?;
        Ok(RunReply {
            cache_hit: map_hit && !built_now,
            // Relaxed: reporting monotonic counters.
            plan_builds: entry.builds.load(Ordering::Relaxed),
            resets: entry.resets.load(Ordering::Relaxed), // Relaxed: reporting
            batched: 1,
            engine: plan.engine(),
            steps: 0,
            threads: plan.threads() as u32,
            pinned: false,
            tiles: None,
            lcs_length: None,
            digest: 0,
            server_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// Run `spec`'s plan against a fresh `seed`-derived state, after any
    /// earlier request for the same spec has finished with it. Sheds
    /// with [`ServeError::Busy`], without blocking, when the entry's
    /// admission bound is reached.
    pub fn run(&self, spec: &JobSpec, seed: u64) -> Result<RunReply, ServeError> {
        let start = Instant::now();
        let (entry, map_hit) = self.entry(spec);
        // Admission before locking: refuse work the entry cannot take
        // soon rather than queueing it unboundedly — the caller gets a
        // typed Busy with a retry hint instead of latency collapse.
        let admit = |n: usize| (n < self.max_queue_depth).then_some(n + 1);
        let count = &entry.admitted;
        // Relaxed (both): the count only bounds admission; the plan
        // itself is ordered by the slot mutex.
        let Ok(ahead) = count.fetch_update(Ordering::Relaxed, Ordering::Relaxed, admit) else {
            self.stats.shed.fetch_add(1, Ordering::Relaxed); // Relaxed: statistic
            return Err(ServeError::Busy {
                retry_after_ms: self.busy_retry_ms,
            });
        };
        let _admission = Admission(&entry);
        let mut slot = lock(&entry.slot);
        let built_now = slot.is_none();
        let plan = self.ensure_plan(&entry, &mut slot)?;
        let mut state = fresh_state(&entry.spec.problem, seed);
        if plan.is_poisoned() {
            // Poison recovery: reset against the fresh state, then run.
            // The entry's plan is reused — zero rebuilds — and the run
            // below is bitwise-identical to a fresh plan's.
            plan.reset(&mut state).map_err(ServeError::Run)?;
            // Relaxed: statistics.
            entry.resets.fetch_add(1, Ordering::Relaxed);
            self.stats.poison_resets.fetch_add(1, Ordering::Relaxed); // Relaxed: statistic
        }
        let report = match plan.run(&mut state) {
            Ok(report) => report,
            Err(PlanError::Poisoned { panic }) => {
                // This request's run panicked: the entry stays interned
                // with its poisoned plan (the *next* request resets it)
                // and only this request fails.
                return Err(ServeError::Poisoned(panic));
            }
            Err(e) => {
                // A non-poisoning failure after a reset means the plan is
                // beyond recovery; drop it so the next request rebuilds.
                *slot = None;
                return Err(ServeError::Run(e));
            }
        };
        Ok(RunReply {
            cache_hit: map_hit && !built_now,
            // Relaxed: reporting monotonic counters.
            plan_builds: entry.builds.load(Ordering::Relaxed),
            resets: entry.resets.load(Ordering::Relaxed), // Relaxed: reporting
            batched: ahead as u32 + 1,
            engine: report.engine,
            steps: report.steps as u64,
            threads: report.threads as u32,
            pinned: report.pinned,
            tiles: report
                .tiles
                .map(|t| (t.tiles as u64, t.block as u64, t.height as u64)),
            lcs_length: report.lcs_length,
            digest: state_digest(&state),
            server_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// Build the entry's plan if the slot is empty.
    fn ensure_plan<'s>(
        &self,
        entry: &Entry,
        slot: &'s mut Option<Plan>,
    ) -> Result<&'s mut Plan, ServeError> {
        if slot.is_none() {
            let plan = entry
                .spec
                .config
                .plan_builder()
                .build(&entry.spec.problem)
                .map_err(ServeError::Build)?;
            // Relaxed: statistics.
            entry.builds.fetch_add(1, Ordering::Relaxed);
            self.stats.builds.fetch_add(1, Ordering::Relaxed); // Relaxed: statistic
            *slot = Some(plan);
        }
        match slot.as_mut() {
            Some(plan) => Ok(plan),
            // The branch above just filled the slot; `None` here is
            // impossible but still mapped to an error, never a panic.
            None => Err(ServeError::Internal("plan slot empty after build")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_plan::Problem;
    use tempora_proto::Tiling;
    use tempora_stencil::Heat1dCoeffs;

    fn spec() -> JobSpec {
        JobSpec::new(Problem::heat1d(512, 8, Heat1dCoeffs::classic(0.25)))
    }

    #[test]
    fn second_run_hits_without_rebuilding() {
        let cache = PlanCache::new(CacheConfig::default());
        let first = cache.run(&spec(), 1).unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.plan_builds, 1);
        let second = cache.run(&spec(), 1).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.plan_builds, 1, "hit must not rebuild");
        assert_eq!(second.digest, first.digest, "same seed, same state");
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn distinct_configs_intern_distinct_plans() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = spec();
        let mut b = spec();
        b.config.tiling = Tiling::Ghost {
            block: 64,
            height: 4,
        };
        b.config.threads = 2;
        cache.run(&a, 1).unwrap();
        cache.run(&b, 1).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn lru_eviction_keeps_the_cache_bounded() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
            ..CacheConfig::default()
        });
        for n in [128usize, 160, 192, 224] {
            let s = JobSpec::new(Problem::heat1d(n, 4, Heat1dCoeffs::classic(0.25)));
            cache.run(&s, 1).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
        // An evicted spec comes back as a miss + rebuild, not an error.
        let s = JobSpec::new(Problem::heat1d(128, 4, Heat1dCoeffs::classic(0.25)));
        let r = cache.run(&s, 1).unwrap();
        assert!(!r.cache_hit);
    }

    #[test]
    fn concurrent_same_spec_requests_share_one_build() {
        let cache = std::sync::Arc::new(PlanCache::new(CacheConfig::default()));
        let mut handles = Vec::new();
        for seed in 0..8u64 {
            let cache = std::sync::Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                cache.run(&spec(), seed).unwrap()
            }));
        }
        let replies: Vec<RunReply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.stats().builds, 1, "one build for the whole burst");
        assert!(replies.iter().all(|r| r.plan_builds == 1));
        // Each saw itself plus at most the seven others on admission.
        assert!(replies.iter().all(|r| (1..=8).contains(&r.batched)));
        // Same seed ⇒ same digest; different seeds ⇒ (almost surely) not.
        assert_ne!(replies[0].digest, replies[1].digest);
    }
}
