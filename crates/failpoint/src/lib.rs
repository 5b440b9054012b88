//! Deterministic fault injection for the tempora workspace.
//!
//! A *failpoint* is a named site in library code where a test (or an
//! operator reproducing a field failure) can ask the process to panic on a
//! precisely chosen hit. Sites are declared with the [`failpoint!`] macro:
//!
//! ```
//! tempora_failpoint::failpoint!("arena_alloc");
//! # let (band, block) = (0usize, 0usize);
//! tempora_failpoint::failpoint!("wave_task", band, block);
//! ```
//!
//! Unless this crate is compiled with the `failpoints` feature, every site
//! folds to nothing: [`enabled`] is a `const fn` returning `false`, so the
//! `if` guarding the registry call is dead code and the optimizer removes
//! it. Consumer crates therefore depend on `tempora_failpoint`
//! unconditionally and never need a feature of their own — turning on the
//! workspace-level `failpoints` feature arms every site at once through
//! cargo feature unification.
//!
//! # Activation
//!
//! Two equivalent routes:
//!
//! - **Environment** — `TEMPORA_FAILPOINT=site=panic@k` (read once, at the
//!   first armed-site check). `@k` selects the k-th hit (1-based) and
//!   defaults to `@1`; multiple directives are separated by `;`. Sites
//!   declared with extra `usize` arguments can be targeted per instance by
//!   suffixing the values with `:`, e.g. `wave_task:1:2=panic@1` fires on
//!   the first execution of band 1, block 2 — deterministic at any thread
//!   count because the key names the task, not the worker.
//! - **Programmatic** — [`arm`] with the same directive syntax, plus
//!   [`clear`] to disarm everything. This is what the in-process test
//!   suite uses.
//!
//! Each directive fires at most once; [`clear`]ing and re-[`arm`]ing resets
//! the hit counters. Two actions are supported:
//!
//! - `panic` — throw a panic at the site, exercising the containment and
//!   recovery paths in `tempora_parallel`, `tempora_plan` and
//!   `tempora_server` (a panic in a connection thread *is* a dropped
//!   connection);
//! - `sleep:MS` — block the hitting thread for `MS` milliseconds,
//!   modelling a stalled peer or a slow I/O path without killing it.

/// True when this build carries live failpoints.
///
/// This is a `const fn` evaluated against *this crate's* features, so the
/// [`failpoint!`] macro expansion in a consumer crate still observes the
/// unified workspace decision rather than the consumer's own feature set.
#[inline(always)]
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "failpoints")
}

/// Declare a failpoint site.
///
/// The first argument is the site name; optional further `usize` arguments
/// form an *instance key* (`site:a:b`) that directives can target
/// individually. With the `failpoints` feature off the expansion is an
/// `if false` branch that the optimizer deletes.
#[macro_export]
macro_rules! failpoint {
    ($site:expr $(, $arg:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::fire($site, &[$(($arg) as usize),*]);
        }
    };
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    /// Stub hit notification; never called because [`crate::enabled`] is
    /// `false`, but it must exist for the macro expansion to type-check.
    #[inline(always)]
    pub fn fire(_site: &str, _instance: &[usize]) {}

    /// Stub: arming without the `failpoints` feature is a programming
    /// error in a test harness, so fail loudly instead of silently doing
    /// nothing.
    pub fn arm(_directives: &str) {
        panic!("tempora_failpoint::arm called without the `failpoints` feature");
    }

    /// Stub disarm; a no-op so tests can call it unconditionally.
    pub fn clear() {}

    /// Stub hit counter; always zero without the `failpoints` feature.
    #[must_use]
    pub fn hits(_key: &str) -> usize {
        0
    }

    /// Stub env reload; a no-op without the `failpoints` feature.
    pub fn reload_from_env() {}
}

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// What a directive does when its hit number is reached.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Action {
        /// Throw a panic at the site.
        Panic,
        /// Block the hitting thread for this many milliseconds.
        Sleep(u64),
    }

    /// One armed directive: act on the `at`-th hit of its key.
    struct Arm {
        /// 1-based hit number to act on.
        at: usize,
        /// What to do when the hit is reached.
        action: Action,
        /// Hits observed so far for this key.
        hits: usize,
        /// Whether the action already fired (each directive is single-shot).
        fired: bool,
    }

    /// Armed directives keyed by site or instance key (`site` or
    /// `site:a:b`).
    type Registry = HashMap<String, Arm>;

    /// Fast path: `true` iff at least one directive is armed. Sites check
    /// this single atomic before touching the registry mutex, so an
    /// unarmed `failpoints` build stays cheap inside hot loops.
    static ANY_ARMED: AtomicBool = AtomicBool::new(false);

    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

    /// The global registry, seeded from `TEMPORA_FAILPOINT` on first use.
    fn registry() -> &'static Mutex<Registry> {
        REGISTRY.get_or_init(|| {
            let mut reg = Registry::new();
            if let Ok(spec) = std::env::var("TEMPORA_FAILPOINT") {
                arm_into(&mut reg, &spec);
            }
            Mutex::new(reg)
        })
    }

    /// Lock the registry, recovering from poisoning: a failpoint's whole
    /// job is to panic near this mutex, and the registry (plain counters)
    /// stays consistent because panics are only thrown *after* the guard
    /// is dropped.
    fn lock() -> std::sync::MutexGuard<'static, Registry> {
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parse `directives` (see crate docs for the syntax) into `reg`.
    ///
    /// Panics on malformed input: a mistyped injection spec that silently
    /// arms nothing would make a fault-injection test vacuously pass.
    fn arm_into(reg: &mut Registry, directives: &str) {
        for directive in directives.split(';') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            let (key, action) = directive.split_once('=').unwrap_or_else(|| {
                panic!("malformed failpoint directive `{directive}`: expected `site=action[@k]`")
            });
            let (action, at) = match action.split_once('@') {
                Some((action, k)) => {
                    let at: usize = k.parse().unwrap_or_else(|_| {
                        panic!("malformed failpoint directive `{directive}`: `@{k}` is not a hit number")
                    });
                    (action, at)
                }
                None => (action, 1),
            };
            let action = match action.split_once(':') {
                None if action == "panic" => Action::Panic,
                Some(("sleep", ms)) => Action::Sleep(ms.parse().unwrap_or_else(|_| {
                    panic!(
                        "malformed failpoint directive `{directive}`: `sleep:{ms}` wants milliseconds"
                    )
                })),
                _ => panic!(
                    "malformed failpoint directive `{directive}`: unsupported action `{action}` \
                     (expected `panic` or `sleep:MS`)"
                ),
            };
            if at == 0 {
                panic!("malformed failpoint directive `{directive}`: hit numbers are 1-based");
            }
            reg.insert(
                key.to_owned(),
                Arm {
                    at,
                    action,
                    hits: 0,
                    fired: false,
                },
            );
        }
        // Ordering: Release pairs with the Acquire in `fire` so a site
        // that observes the flag also observes the mutex-protected arms
        // inserted before it was raised (the mutex alone already orders
        // the map itself; the flag is the cheap gate in front of it).
        ANY_ARMED.store(!reg.is_empty(), Ordering::Release);
    }

    /// Hit notification from a [`crate::failpoint!`] site.
    ///
    /// Looks up both the bare site key and, when `instance` is non-empty,
    /// the instance key `site:a:b`; each matching directive counts the hit
    /// and panics (once, outside the registry lock) when its `@k` target
    /// is reached.
    pub fn fire(site: &str, instance: &[usize]) {
        // Ordering: Acquire pairs with the Release in `arm_into`; see the
        // comment there. An unarmed registry makes this a single load.
        if !ANY_ARMED.load(Ordering::Acquire) {
            // Still force env seeding on the very first call so that a
            // spec set before process start arms without an explicit
            // `reload_from_env`.
            if REGISTRY.get().is_none() {
                drop(lock());
                // Ordering: Acquire — re-check after env seeding; pairs
                // with the Release store in `arm_into`.
                if !ANY_ARMED.load(Ordering::Acquire) {
                    return;
                }
            } else {
                return;
            }
        }
        let mut trip: Option<(Action, String)> = None;
        {
            let mut reg = lock();
            let mut visit = |key: &str| {
                if let Some(arm) = reg.get_mut(key) {
                    arm.hits += 1;
                    if !arm.fired && arm.hits == arm.at {
                        arm.fired = true;
                        let what = match arm.action {
                            Action::Panic => "panic".to_owned(),
                            Action::Sleep(ms) => format!("{ms}ms sleep"),
                        };
                        trip = Some((
                            arm.action,
                            format!("failpoint `{key}` injected {what} on hit {}", arm.at),
                        ));
                    }
                }
            };
            visit(site);
            if !instance.is_empty() {
                let mut key = String::from(site);
                for v in instance {
                    key.push(':');
                    key.push_str(&v.to_string());
                }
                visit(&key);
            }
        }
        // Act outside the registry lock so a panic (or a long sleep) never
        // wedges other sites' bookkeeping.
        match trip {
            Some((Action::Panic, msg)) => panic!("{msg}"),
            Some((Action::Sleep(ms), _)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            None => {}
        }
    }

    /// Arm one or more directives (same syntax as `TEMPORA_FAILPOINT`).
    ///
    /// Panics on malformed input. Existing directives for other keys stay
    /// armed; re-arming a key resets its hit counter.
    pub fn arm(directives: &str) {
        let mut reg = lock();
        arm_into(&mut reg, directives);
    }

    /// Disarm every directive and reset all hit counters.
    pub fn clear() {
        let mut reg = lock();
        reg.clear();
        // Ordering: Release for symmetry with `arm_into`; the flag is a
        // gate, correctness of the map is carried by the mutex.
        ANY_ARMED.store(false, Ordering::Release);
    }

    /// Hits observed for an exact key (bare site or instance key) since it
    /// was last armed. Zero for unknown keys.
    #[must_use]
    pub fn hits(key: &str) -> usize {
        lock().get(key).map_or(0, |arm| arm.hits)
    }

    /// Re-read `TEMPORA_FAILPOINT` and arm its directives on top of the
    /// current registry. Tests that set the variable after process start
    /// call this to pick it up.
    pub fn reload_from_env() {
        if let Ok(spec) = std::env::var("TEMPORA_FAILPOINT") {
            arm(&spec);
        }
    }
}

pub use imp::{arm, clear, fire, hits, reload_from_env};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Serializes tests: the registry is process-global.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| Mutex::new(()));
        lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fires(site: &str, instance: &[usize]) -> bool {
        catch_unwind(AssertUnwindSafe(|| super::fire(site, instance))).is_err()
    }

    #[test]
    fn bare_site_fires_on_kth_hit() {
        let _g = guard();
        super::clear();
        super::arm("alpha=panic@3");
        assert!(!fires("alpha", &[]));
        assert!(!fires("alpha", &[]));
        assert!(fires("alpha", &[]));
        // Single-shot: the directive does not re-fire on later hits.
        assert!(!fires("alpha", &[]));
        assert_eq!(super::hits("alpha"), 4);
        super::clear();
    }

    #[test]
    fn instance_key_targets_one_task() {
        let _g = guard();
        super::clear();
        super::arm("wave:1:2=panic");
        assert!(!fires("wave", &[0, 2]));
        assert!(!fires("wave", &[1, 1]));
        assert!(fires("wave", &[1, 2]));
        super::clear();
    }

    #[test]
    fn unarmed_sites_are_silent() {
        let _g = guard();
        super::clear();
        assert!(!fires("anything", &[7]));
        super::clear();
    }

    #[test]
    fn multiple_directives_and_rearm_reset() {
        let _g = guard();
        super::clear();
        super::arm("a=panic@2; b=panic@1");
        assert!(fires("b", &[]));
        assert!(!fires("a", &[]));
        // Re-arming `a` resets its counter, so two more hits are needed.
        super::arm("a=panic@2");
        assert!(!fires("a", &[]));
        assert!(fires("a", &[]));
        super::clear();
    }

    #[test]
    fn sleep_action_stalls_without_panicking() {
        let _g = guard();
        super::clear();
        super::arm("stall=sleep:50@2");
        let t0 = std::time::Instant::now();
        assert!(!fires("stall", &[]));
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(40),
            "hit 1 must not sleep"
        );
        let t1 = std::time::Instant::now();
        assert!(!fires("stall", &[]));
        assert!(
            t1.elapsed() >= std::time::Duration::from_millis(50),
            "hit 2 sleeps 50ms"
        );
        // Single-shot: the third hit does not sleep again.
        let t2 = std::time::Instant::now();
        assert!(!fires("stall", &[]));
        assert!(t2.elapsed() < std::time::Duration::from_millis(40));
        super::clear();
    }

    #[test]
    fn malformed_directives_are_rejected() {
        let _g = guard();
        super::clear();
        for bad in [
            "nosign",
            "x=explode",
            "x=panic@zero",
            "x=panic@0",
            "x=sleep",
            "x=sleep:soon",
            "x=exit:never",
        ] {
            assert!(
                catch_unwind(AssertUnwindSafe(|| super::arm(bad))).is_err(),
                "directive `{bad}` should be rejected"
            );
        }
        super::clear();
    }
}
