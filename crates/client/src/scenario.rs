//! Closed-loop load scenarios and their single-line JSON summary.
//!
//! Each scenario opens `conns` connections (one thread each) and issues
//! `requests` total `RunSteps` calls back-to-back (closed loop: the next
//! request leaves when the previous reply lands). They differ in how
//! requests map onto specs:
//!
//! | scenario | shape |
//! |---|---|
//! | `baseline` | 1 connection, 1 spec — pure cached-path latency |
//! | `fan-out` | N connections, 1 shared spec — requests taking turns on one plan |
//! | `fan-in` | N connections, N distinct specs — shard spread, no plan sharing |
//! | `churn` | N connections rotating through more specs than the cache holds — eviction pressure |

use crate::hist::Histogram;
use crate::retry::{RetryPolicy, RetryingClient, Target};
use crate::{Client, ClientError};
use std::time::{Duration, Instant};
use tempora_proto::{JobSpec, Problem, RunReply};
use tempora_stencil::{Gs1dCoeffs, Heat1dCoeffs, Heat2dCoeffs};

/// Which load pattern to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// One connection, one spec.
    Baseline,
    /// Many connections, one shared spec.
    FanOut,
    /// Many connections, distinct specs.
    FanIn,
    /// Many connections rotating through more specs than the cache
    /// capacity, forcing evictions and rebuilds.
    Churn,
}

impl Scenario {
    /// The scenario's CLI/JSON name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::FanOut => "fan-out",
            Scenario::FanIn => "fan-in",
            Scenario::Churn => "churn",
        }
    }

    /// Parse a CLI/JSON name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Scenario> {
        match s {
            "baseline" => Some(Scenario::Baseline),
            "fan-out" => Some(Scenario::FanOut),
            "fan-in" => Some(Scenario::FanIn),
            "churn" => Some(Scenario::Churn),
            _ => None,
        }
    }
}

/// Where and what to drive.
#[derive(Clone, Debug)]
pub struct ScenarioCfg {
    /// TCP address (`host:port`) — used unless `uds` is set.
    pub tcp: Option<String>,
    /// Unix-socket path, taking precedence over `tcp`.
    pub uds: Option<String>,
    /// The load pattern.
    pub scenario: Scenario,
    /// Connections (threads). Baseline forces 1.
    pub conns: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Distinct specs for fan-in/churn.
    pub distinct: usize,
    /// Base seed; per-request seeds derive from it.
    pub seed: u64,
    /// The base spec every variant derives from.
    pub base: JobSpec,
    /// When set, every connection goes through a [`RetryingClient`]
    /// with this policy (jitter-seeded per connection): broken streams
    /// reconnect, `Busy`/`GoingAway` back off and retry, and request
    /// failures count as `errors` instead of aborting the scenario.
    pub retry: Option<RetryPolicy>,
    /// Socket read/write timeout for retry-enabled connections.
    pub io_timeout: Option<Duration>,
}

/// What one agent observed, ready to serialize as one JSON line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Scenario name.
    pub scenario: String,
    /// Connections used.
    pub conns: usize,
    /// Requests completed (successes).
    pub ok: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Replies with `cache_hit`.
    pub hits: u64,
    /// Replies without `cache_hit`.
    pub misses: u64,
    /// Total plan builds observed (max `plan_builds` per distinct spec
    /// is summed by the harness via server stats; this is the per-reply
    /// build-attribution count: replies that triggered a build).
    pub built: u64,
    /// Largest `RunReply::batched` observed: the peak number of
    /// concurrent requests for one plan.
    pub max_batched: u32,
    /// Retry attempts beyond each request's first try (retry mode).
    pub retries: u64,
    /// Connections re-established after a drop (retry mode).
    pub reconnects: u64,
    /// End-to-end client-side request latencies (ns).
    pub latency: Histogram,
    /// Wall-clock duration of the whole scenario (seconds).
    pub elapsed_s: f64,
}

impl Outcome {
    /// Render the single-line JSON summary `tempora-agent` prints.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let p50 = self.latency.percentile(0.50);
        let p95 = self.latency.percentile(0.95);
        let p99 = self.latency.percentile(0.99);
        let throughput = if self.elapsed_s > 0.0 {
            self.ok as f64 / self.elapsed_s
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\"scenario\":\"{}\",\"conns\":{},\"ok\":{},\"errors\":{},",
                "\"hits\":{},\"misses\":{},\"built\":{},\"max_batched\":{},",
                "\"retries\":{},\"reconnects\":{},",
                "\"p50_us\":{:.3},\"p95_us\":{:.3},\"p99_us\":{:.3},",
                "\"throughput_rps\":{:.3},\"elapsed_s\":{:.6},\"hist\":\"{}\"}}"
            ),
            self.scenario,
            self.conns,
            self.ok,
            self.errors,
            self.hits,
            self.misses,
            self.built,
            self.max_batched,
            self.retries,
            self.reconnects,
            p50 as f64 / 1000.0,
            p95 as f64 / 1000.0,
            p99 as f64 / 1000.0,
            throughput,
            self.elapsed_s,
            self.latency.to_sparse(),
        )
    }
}

/// The `idx`-th spec variant of `base`: same kind and configuration,
/// distinct geometry (so distinct canonical key and a genuinely
/// different compiled plan).
#[must_use]
pub fn vary_spec(base: &JobSpec, idx: usize) -> JobSpec {
    if idx == 0 {
        return *base;
    }
    let mut spec = *base;
    let bump = 8 * idx;
    spec.problem = match spec.problem {
        Problem::Heat1d {
            n, steps, coeffs, ..
        } => Problem::heat1d(n + bump, steps, coeffs),
        Problem::Gs1d {
            n, steps, coeffs, ..
        } => Problem::gs1d(n + bump, steps, coeffs),
        Problem::Heat2d {
            nx,
            ny,
            steps,
            coeffs,
            ..
        } => Problem::heat2d(nx + bump, ny, steps, coeffs),
        other => other,
    };
    spec
}

fn target(cfg: &ScenarioCfg) -> Result<Target, ClientError> {
    if let Some(path) = &cfg.uds {
        return Ok(Target::Uds(path.into()));
    }
    match &cfg.tcp {
        Some(addr) => Ok(Target::Tcp(addr.clone())),
        None => Err(ClientError::Protocol("no --connect or --uds target")),
    }
}

/// One connection's request path: bare [`Client`] (a request failure
/// beyond a typed server error aborts the scenario) or a
/// [`RetryingClient`] (failures surface only after the policy is
/// exhausted, and count as errors rather than aborting).
enum Driver {
    Plain(Client),
    Retrying(RetryingClient),
}

impl Driver {
    fn new(cfg: &ScenarioCfg, conn_idx: usize) -> Result<Driver, ClientError> {
        let target = target(cfg)?;
        match cfg.retry {
            Some(policy) => {
                // Distinct jitter stream per connection so a fleet's
                // retries spread instead of stampeding.
                let policy = RetryPolicy {
                    jitter_seed: policy
                        .jitter_seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(conn_idx as u64 + 1)),
                    ..policy
                };
                let mut client = RetryingClient::new(target, policy);
                if let Some(t) = cfg.io_timeout {
                    client = client.with_io_timeout(t);
                }
                Ok(Driver::Retrying(client))
            }
            None => {
                let client = match &target {
                    Target::Tcp(addr) => Client::connect_tcp(addr)?,
                    Target::Uds(path) => Client::connect_uds(path)?,
                };
                Ok(Driver::Plain(client))
            }
        }
    }

    fn run_steps(&mut self, spec: &JobSpec, seed: u64) -> Result<RunReply, ClientError> {
        match self {
            Driver::Plain(c) => c.run_steps(spec, seed),
            Driver::Retrying(c) => c.run_steps(spec, seed),
        }
    }
}

/// Run the configured scenario to completion and aggregate every
/// connection's observations.
pub fn run(cfg: &ScenarioCfg) -> Result<Outcome, ClientError> {
    let conns = match cfg.scenario {
        Scenario::Baseline => 1,
        _ => cfg.conns.max(1),
    };
    let distinct = match cfg.scenario {
        Scenario::Baseline | Scenario::FanOut => 1,
        Scenario::FanIn => cfg.distinct.max(conns),
        Scenario::Churn => cfg.distinct.max(2),
    };
    let start = Instant::now();
    let mut handles = Vec::new();
    for conn_idx in 0..conns {
        let cfg = cfg.clone();
        let requests = cfg.requests / conns + usize::from(conn_idx < cfg.requests % conns);
        handles.push(std::thread::spawn(
            move || -> Result<Outcome, ClientError> {
                let mut driver = Driver::new(&cfg, conn_idx)?;
                let mut out = Outcome::default();
                for req in 0..requests {
                    let spec_idx = match cfg.scenario {
                        Scenario::Baseline | Scenario::FanOut => 0,
                        // Fan-in: each connection owns one spec.
                        Scenario::FanIn => conn_idx % distinct,
                        // Churn: every request rotates to the next spec.
                        Scenario::Churn => (conn_idx + req * conns) % distinct,
                    };
                    let spec = vary_spec(&cfg.base, spec_idx);
                    let seed = cfg.seed ^ ((spec_idx as u64) << 32);
                    let sent = Instant::now();
                    match driver.run_steps(&spec, seed) {
                        Ok(reply) => {
                            out.ok += 1;
                            if reply.cache_hit {
                                out.hits += 1;
                            } else {
                                out.misses += 1;
                            }
                            if !reply.cache_hit && reply.plan_builds > 0 {
                                out.built += 1;
                            }
                            out.max_batched = out.max_batched.max(reply.batched);
                            out.latency.record(sent.elapsed().as_nanos() as u64);
                        }
                        Err(ClientError::Server { .. }) => out.errors += 1,
                        // Retry mode: the policy already fought for this
                        // request; an exhausted retryable failure is an
                        // availability miss, not a harness abort.
                        Err(_) if matches!(driver, Driver::Retrying(_)) => out.errors += 1,
                        Err(fatal) => return Err(fatal),
                    }
                }
                if let Driver::Retrying(client) = &driver {
                    let stats = client.stats();
                    out.retries = stats.retries;
                    out.reconnects = stats.reconnects;
                }
                Ok(out)
            },
        ));
    }
    let mut total = Outcome {
        scenario: cfg.scenario.name().to_string(),
        conns,
        ..Outcome::default()
    };
    let mut first_err = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(out)) => {
                total.ok += out.ok;
                total.errors += out.errors;
                total.hits += out.hits;
                total.misses += out.misses;
                total.built += out.built;
                total.max_batched = total.max_batched.max(out.max_batched);
                total.retries += out.retries;
                total.reconnects += out.reconnects;
                total.latency.merge(&out.latency);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(ClientError::Protocol("scenario thread panicked")))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    Ok(total)
}

/// The default problem the agent drives when none is specified: a 1-D
/// heat stencil sized for sub-millisecond steady-state runs.
#[must_use]
pub fn default_spec(problem: &str, n: usize, steps: usize) -> Option<JobSpec> {
    let spec = match problem {
        "heat1d" => JobSpec::new(Problem::heat1d(n, steps, Heat1dCoeffs::classic(0.25))),
        "gs1d" => JobSpec::new(Problem::gs1d(n, steps, Gs1dCoeffs::classic(0.25))),
        "heat2d" => JobSpec::new(Problem::heat2d(
            n,
            n / 2 + 8,
            steps,
            Heat2dCoeffs::classic(0.125),
        )),
        "lcs" => JobSpec::new(Problem::lcs(n, n / 2 + 8)),
        _ => return None,
    };
    Some(spec)
}
