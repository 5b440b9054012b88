//! The two served workloads: `serve-hit` and `serve-churn`.
//!
//! An in-process `Server` listens on TCP loopback; two connections run
//! closed loops of `Client::run_steps`. One *op* is one round-trip, and
//! every op is the same work: the specs of a workload share one geometry
//! (Heat-1D `n = 4096, steps = 32`, the ROADMAP's reference request) and
//! differ only in a coefficient, which is part of the canonical cache
//! key. Every reply's digest is compared with one computed in-process
//! before timing.

use crate::catalogue::Workload;
use crate::measure::{Phase, Recorder};
use crate::stats;
use crate::trace::{Tracer, NO_PARENT};
use crate::Outcome;
use std::time::{Duration, Instant};
use tempora_client::Client;
use tempora_plan::{Plan, Problem};
use tempora_proto::{state_digest, Frame, JobSpec, RunReply};
use tempora_server::{fresh_state, CacheConfig, PlanCache, Server, ServerConfig};
use tempora_stencil::Heat1dCoeffs;

/// Connections (= client threads) of a served workload; the host this
/// was designed on has two vCPUs.
const CONNECTIONS: usize = 2;
/// Seeds each spec cycles over.
const SEEDS: usize = 16;

/// A workload's traffic: its specs, seeds, expected digests and cache.
struct Mix {
    specs: Vec<JobSpec>,
    seeds: Vec<u64>,
    /// `expected[spec][seed]`: digest of the in-process solve.
    expected: Vec<Vec<u64>>,
    cache: CacheConfig,
    /// Specs one connection cycles over.
    cycle: usize,
    /// True when the connections cycle disjoint ranges of the specs
    /// (churn) rather than the same range at an offset (hit).
    disjoint: bool,
}

impl Mix {
    /// The workload's traffic plus one prebuilt in-process plan per spec
    /// (they solve the reference digests here and serve the budget
    /// later; a `Plan` is not `Sync`, so they stay out of the `Mix` the
    /// connection threads share).
    fn new(workload: Workload, seed: u64, smoke: bool) -> Result<(Mix, Vec<Plan>), String> {
        let (n, steps) = if smoke { (512, 8) } else { (4096, 32) };
        let churn = workload == Workload::ServeChurn;
        let count = if churn { 64 } else { 8 };
        let specs: Vec<JobSpec> = (0..count).map(|k| spec(n, steps, k)).collect();
        let seeds: Vec<u64> = (0..SEEDS as u64)
            .map(|j| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(j))
            .collect();
        let mut plans = Vec::with_capacity(count);
        let mut expected = Vec::with_capacity(count);
        for s in &specs {
            let mut plan = build(s)?;
            let digests = seeds
                .iter()
                .map(|&seed| {
                    let mut state = fresh_state(&s.problem, seed);
                    plan.run(&mut state)
                        .map(|_| state_digest(&state))
                        .map_err(|e| format!("reference solve failed: {e}"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            expected.push(digests);
            plans.push(plan);
        }
        let mix = Mix {
            specs,
            seeds,
            expected,
            cache: if churn {
                CacheConfig {
                    capacity: 16,
                    ..CacheConfig::default()
                }
            } else {
                CacheConfig::default()
            },
            cycle: if churn { count / CONNECTIONS } else { count },
            disjoint: churn,
        };
        Ok((mix, plans))
    }

    /// `(spec index, seed index)` of connection `conn`'s `i`-th op.
    fn pick(&self, conn: usize, i: u64) -> (usize, usize) {
        let (base, shift) = if self.disjoint {
            (conn * self.cycle, 0)
        } else {
            (0, conn * self.cycle / CONNECTIONS)
        };
        let spec = base + (i as usize + shift) % self.cycle;
        let seed = (i as usize / self.cycle) % SEEDS;
        (spec, seed)
    }
}

/// The `k`-th spec of a geometry: coefficients are part of the canonical
/// `SpecKey`, so each `k` is a distinct plan of exactly the same cost.
fn spec(n: usize, steps: usize, k: usize) -> JobSpec {
    let alpha = 0.10 + 0.002 * k as f64;
    JobSpec::new(Problem::heat1d(n, steps, Heat1dCoeffs::classic(alpha)))
}

fn build(spec: &JobSpec) -> Result<Plan, String> {
    spec.config
        .plan_builder()
        .build(&spec.problem)
        .map_err(|e| format!("in-process build failed: {e}"))
}

/// One connection with its position in the mix and its tallies.
struct Conn {
    client: Client,
    id: usize,
    next: u64,
    attempted: u64,
    failed: u64,
    max_batched: u32,
}

impl Conn {
    /// One op: a `run_steps` round-trip, checked against the expected
    /// digest (and, when every spec is cached, `cache_hit`). Returns
    /// the op's start and end.
    fn op(&mut self, mix: &Mix, must_hit: bool) -> (Instant, Instant) {
        let (k, j) = mix.pick(self.id, self.next);
        self.next += 1;
        let start = Instant::now();
        let reply = self.client.run_steps(&mix.specs[k], mix.seeds[j]);
        let end = Instant::now();
        self.attempted += 1;
        match reply {
            Ok(r) if r.digest == mix.expected[k][j] && (r.cache_hit || !must_hit) => {
                self.max_batched = self.max_batched.max(r.batched);
            }
            Ok(_) => self.failed += 1,
            Err(e) => {
                self.failed += 1;
                eprintln!("ledger: connection {}: {e}", self.id);
            }
        }
        (start, end)
    }

    /// Closed loop for `length` from `epoch`; `on_op` logs each op's wall
    /// time and returns the time since the epoch.
    fn drive(
        &mut self,
        mix: &Mix,
        length: Duration,
        mut tracer: Option<&mut Tracer>,
        mut on_op: impl FnMut(Duration) -> Duration,
    ) {
        let must_hit = !mix.disjoint;
        loop {
            let (start, end) = self.op(mix, must_hit);
            if let Some(t) = tracer.as_deref_mut() {
                let op = self.next * CONNECTIONS as u64 + self.id as u64;
                t.record("client.run_steps", start, end, NO_PARENT, op);
            }
            if on_op(end - start) >= length {
                return;
            }
        }
    }
}

/// A started server with its connections.
struct Live {
    server: Server,
    conns: Vec<Conn>,
}

/// The complete set-up a user pays before the first result, timed:
/// `Server::start`, the connects, `Client::submit` of every spec and the
/// first `run_steps` of each.
fn set_up(mix: &Mix) -> Result<(Live, f64), String> {
    let start = Instant::now();
    let server = Server::start(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        cache: mix.cache,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))?;
    let addr = server
        .tcp_addr()
        .ok_or("server has no TCP address")?
        .to_string();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for id in 0..CONNECTIONS {
        let client = Client::connect_tcp(&addr).map_err(|e| format!("connect failed: {e}"))?;
        conns.push(Conn {
            client,
            id,
            next: 0,
            attempted: 0,
            failed: 0,
            max_batched: 0,
        });
    }
    let first = &mut conns[0];
    for (k, spec) in mix.specs.iter().enumerate() {
        first
            .client
            .submit(spec)
            .map_err(|e| format!("submit failed: {e}"))?;
        let reply = first
            .client
            .run_steps(spec, mix.seeds[0])
            .map_err(|e| format!("first run_steps failed: {e}"))?;
        first.attempted += 1;
        first.failed += u64::from(reply.digest != mix.expected[k][0]);
    }
    Ok((Live { server, conns }, start.elapsed().as_secs_f64()))
}

/// Untimed tear-down: close the connections, then drain and join the
/// server's threads. Returns `(attempted, failed)` of the connections.
fn tear_down(live: Live) -> (u64, u64) {
    let tally = live
        .conns
        .iter()
        .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed));
    drop(live.conns);
    live.server.shutdown(Duration::from_secs(5));
    tally
}

/// One load phase: connection 0 runs on the calling (measuring) thread
/// and cuts the slices, connection 1 on a scoped thread. No other thread
/// of this process runs meanwhile except the server's own.
fn load_phase(
    live: &mut Live,
    mix: &Mix,
    length: Duration,
    tracers: Option<&mut [Tracer; CONNECTIONS]>,
) -> Phase {
    let epoch = Instant::now();
    let (first, rest) = live.conns.split_at_mut(1);
    let (t0, t1) = match tracers {
        Some([a, b]) => (Some(a), Some(b)),
        None => (None, None),
    };
    let capacity = (length.as_secs_f64() * 30_000.0) as usize + 1024;
    let mut rec = Recorder::start(epoch, length, capacity);
    // Holds connection 1's thread alive until the last CPU reading is
    // taken (a channel, not a barrier: if either side panics the other's
    // end reports it instead of waiting for ever).
    let (read, hold) = std::sync::mpsc::channel::<()>();
    let other = std::thread::scope(|scope| {
        let second = scope.spawn(move || {
            let mut op_ns = Vec::with_capacity(capacity);
            let mut op_end_ns = Vec::with_capacity(capacity);
            rest[0].drive(mix, length, t1, |wall| {
                let now = epoch.elapsed();
                op_ns.push(wall.as_nanos() as u64);
                op_end_ns.push(now.as_nanos() as u64);
                now
            });
            let _ = hold.recv();
            (op_ns, op_end_ns)
        });
        first[0].drive(mix, length, t0, |wall| {
            let now = rec.op_done(wall);
            rec.maybe_cut(now);
            now
        });
        rec.close();
        let _ = read.send(());
        second.join()
    });
    match other {
        Ok(log) => rec.finish(&[log]),
        // The connection thread panicked: nothing of this phase counts.
        Err(_) => {
            first[0].failed += 1;
            rec.finish(&[])
        }
    }
}

/// Median microseconds of `f`, timed `reps` times.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us)
}

/// Encode and decode one frame the way both ends of the wire do.
fn codec_roundtrip(frame: &Frame) -> usize {
    let body = frame.encode_body();
    std::hint::black_box(Frame::decode_body(&body).is_ok());
    body.len() + 4
}

/// One budget sample: the served round-trip on `conn` next to
/// in-process calls of every layer it crosses, on the same
/// `(spec, seed)`, as children of one `bench.budget` span. Returns
/// whether the in-process cache missed, and the payload, request and
/// reply sizes in bytes.
fn budget_sample(
    conn: &mut Conn,
    mix: &Mix,
    plans: &mut [Plan],
    cache: &PlanCache,
    tracer: &mut Tracer,
    i: u64,
) -> Result<(bool, [usize; 3]), String> {
    let (k, j) = mix.pick(conn.id, conn.next);
    let (spec, seed) = (mix.specs[k], mix.seeds[j]);
    let root = tracer.open("bench.budget", Instant::now(), i);

    let (t0, t1) = conn.op(mix, false);
    tracer.record("client.run_steps/budget", t0, t1, root, i);

    let t = Instant::now();
    let direct = cache.run(&spec, seed);
    tracer.record("server.cache_run", t, Instant::now(), root, i);
    let direct: RunReply = direct.map_err(|e| format!("in-process cache run failed: {e}"))?;
    conn.attempted += 1;
    conn.failed += u64::from(direct.digest != mix.expected[k][j]);

    let t = Instant::now();
    let mut state = fresh_state(&spec.problem, seed);
    tracer.record("server.fill", t, Instant::now(), root, i);
    let t = Instant::now();
    let ran = plans[k].run(&mut state);
    tracer.record("plan.run", t, Instant::now(), root, i);
    ran.map_err(|e| format!("in-process run failed: {e}"))?;
    let t = Instant::now();
    std::hint::black_box(state_digest(&state));
    tracer.record("proto.digest", t, Instant::now(), root, i);

    let request = Frame::RunSteps {
        request_id: i + 1,
        spec,
        seed,
    };
    let reply = Frame::ReportReply {
        request_id: i + 1,
        reply: direct,
    };
    let t = Instant::now();
    let sizes = [
        crate::compute::state_bytes(&state),
        codec_roundtrip(&request),
        codec_roundtrip(&reply),
    ];
    tracer.record("proto.codec", t, Instant::now(), root, i);

    let t = Instant::now();
    let built = build(&spec);
    tracer.record("plan.build", t, Instant::now(), root, i);
    drop(built?);

    // The spec was just run, so both caches hold it: these two are the
    // cheapest request there is, served and in-process.
    let t = Instant::now();
    let null = conn.client.submit(&spec);
    tracer.record("client.submit", t, Instant::now(), root, i);
    null.map_err(|e| format!("submit failed: {e}"))?;
    let t = Instant::now();
    let prepared = cache.prepare(&spec);
    tracer.record("server.prepare", t, Instant::now(), root, i);
    let prepared = prepared.map_err(|e| format!("in-process prepare failed: {e}"))?;
    let submit = Frame::SubmitProblem {
        request_id: i + 1,
        spec,
    };
    let submit_reply = Frame::ReportReply {
        request_id: i + 1,
        reply: prepared,
    };
    let t = Instant::now();
    codec_roundtrip(&submit);
    codec_roundtrip(&submit_reply);
    tracer.record("proto.codec/submit", t, Instant::now(), root, i);
    tracer.close(root, Instant::now());
    Ok((!direct.cache_hit, sizes))
}

/// The per-request budget. Connection 0 (the measuring thread) takes
/// [`budget_sample`]s for `length` while connection 1 keeps its closed
/// loop going, so both vCPUs stay as busy as in the measured phase: on
/// the design host a lone connection pays two ~70 us idle wake-ups per
/// request that the two-connection workload never sees. The wire
/// (socket, framing, thread wake) is measured independently, as the
/// round-trip of a `submit` on an interned spec, so the rows adding up
/// to the observed round-trip is a finding, not an identity. The
/// round-trip they are held against is connection 1's median over the
/// same seconds: the sampler's own requests are spaced by its in-process
/// calls, which lets its server thread fall asleep, and an earlier phase
/// may have run at another host speed.
fn budget(
    live: &mut Live,
    mix: &Mix,
    plans: &mut [Plan],
    length: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let cache = PlanCache::new(mix.cache);
    let (first, rest) = live.conns.split_at_mut(1);
    let epoch = Instant::now();
    let mut missed = 0usize;
    let mut samples = 0usize;
    let mut bytes = [0usize; 3];
    let loaded_us = std::thread::scope(|scope| {
        let loaded = scope.spawn(|| {
            let mut us = Vec::with_capacity((length.as_secs_f64() * 15_000.0) as usize);
            rest[0].drive(mix, length, None, |wall| {
                us.push(wall.as_secs_f64() * 1e6);
                epoch.elapsed()
            });
            us
        });
        while epoch.elapsed() < length {
            let (miss, sizes) =
                budget_sample(&mut first[0], mix, plans, &cache, tracer, samples as u64)?;
            missed += usize::from(miss);
            samples += 1;
            bytes = sizes;
        }
        loaded
            .join()
            .map_err(|_| "the loaded connection's thread panicked".to_owned())
    })?;

    // Never-seen specs: the miss path (intern, build, maybe evict, run).
    let (n, steps) = match mix.specs[0].problem {
        Problem::Heat1d { n, steps, .. } => (n, steps),
        _ => return Err("served specs are Heat-1D".into()),
    };
    let mut fresh = 10_000;
    let miss_us = median_us(samples.clamp(10, 200), || {
        fresh += 1;
        std::hint::black_box(cache.run(&spec(n, steps, fresh), 1).is_ok());
    });

    let summary = tracer.summary();
    let p50 = |name: &str| summary.get(name).map_or(0.0, |s| stats::median(&s.dur_us));
    let run_steps = stats::median(&loaded_us);
    let (cache_run, fill) = (p50("server.cache_run"), p50("server.fill"));
    let (plan_run, digest, codec) = (p50("plan.run"), p50("proto.digest"), p50("proto.codec"));
    let build_us = p50("plan.build");
    let miss_share = missed as f64 / samples.max(1) as f64;
    let cache_self = cache_run - fill - plan_run - digest - miss_share * build_us;
    let wire = p50("client.submit") - p50("server.prepare") - p50("proto.codec/submit");
    let predicted = cache_run + codec + wire;
    let residual = (predicted - run_steps).abs() / run_steps * 100.0;

    let m = &mut out.metrics;
    m.set("plan.build_us", build_us);
    m.set("plan.run_request_us", plan_run);
    m.set("server.cache_run_us", cache_run);
    m.set("server.fill_us", fill);
    m.set("server.cache_self_us", cache_self);
    m.set("server.miss_us", miss_us);
    m.set("proto.digest_us", digest);
    m.set(
        "proto.digest_mib_per_s",
        bytes[0] as f64 / (1 << 20) as f64 / (digest / 1e6),
    );
    m.set(
        "grid.fill_mib_per_s",
        bytes[0] as f64 / (1 << 20) as f64 / (fill / 1e6),
    );
    m.set("proto.codec_us", codec);
    m.set("proto.request_bytes", bytes[1] as f64);
    m.set("proto.reply_bytes", bytes[2] as f64);
    m.set("client.wire_us", wire);
    m.set("bench.budget_residual_pct", residual);
    if let Some(root) = summary.get("bench.budget") {
        m.set(
            "bench.harness_self_pct",
            root.self_ns as f64 / root.total_ns.max(1) as f64 * 100.0,
        );
    }
    out.note(format!(
        "budget over {samples} requests beside a loaded connection (p50 us, miss share {miss_share:.2}): \
         fill {fill:.1} + plan.run {plan_run:.1} + digest {digest:.1} + build {:.1} + cache_self {cache_self:.1} \
         = cache_run {cache_run:.1}; + codec {codec:.1} + wire {wire:.1} = {predicted:.1} vs run_steps {run_steps:.1} \
         on the loaded connection, {:.1} on the sampling one (residual {residual:.1} %)",
        miss_share * build_us,
        p50("client.run_steps/budget")
    ));
    Ok(())
}

/// Run one served workload; see the crate docs for the phases.
pub(crate) fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    trace_out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let (mix, mut plans) = Mix::new(workload, seed, smoke)?;
    // The first server started is the one measured. The set-up is
    // repeated (throw-away servers on their own ports, torn down
    // untimed) in two batches, before and after the measured phase, so
    // that one disturbed stretch cannot cover every repetition.
    let mut tally = (0u64, 0u64);
    let mut count = |(a, f): (u64, u64)| tally = (tally.0 + a, tally.1 + f);
    let (mut live, first) = crate::at_reference_clock(|| set_up(&mix))?;
    let mut setups = vec![first];

    // Warm up, then read the peak resident set before the repetitions
    // (see `compute::run`).
    let length = Duration::from_secs_f64(seconds);
    load_phase(&mut live, &mix, length.mul_f64(0.05), None);
    let peak_rss_mib = crate::procfs::peak_rss_mib();
    let mut repeat = |setups: &mut Vec<f64>| {
        crate::repeat_setups(traced, smoke, setups, || {
            let (extra, s) = crate::at_reference_clock(|| set_up(&mix))?;
            count(tear_down(extra));
            Ok(s)
        })
    };
    repeat(&mut setups)?;

    let mut out = Outcome::new(traced);
    let hit_rate;
    if !traced {
        let before = live.server.stats();
        let phase = load_phase(&mut live, &mix, length, None);
        let after = live.server.stats();
        hit_rate = rate(after.hits - before.hits, after.misses - before.misses);
        repeat(&mut setups)?;
        out.end_to_end(
            &phase,
            peak_rss_mib,
            &setups,
            format!("hit_rate {hit_rate:.4}, "),
        );
    } else {
        let plain = load_phase(&mut live, &mix, length.mul_f64(0.25), None);
        let epoch = Instant::now();
        let mut tracers = [Tracer::new(epoch, 1 << 18), Tracer::new(epoch, 1 << 18)];
        let before = live.server.stats();
        let allocs = tempora_grid::alloc_count();
        for c in &mut live.conns {
            c.max_batched = 0;
        }
        let phase = load_phase(&mut live, &mix, length.mul_f64(0.4), Some(&mut tracers));
        let allocs = tempora_grid::alloc_count() - allocs;
        let after = live.server.stats();
        let [mut tracer, second] = tracers;
        tracer.absorb(second);
        let ops = phase.op_us.len().max(1) as f64;
        hit_rate = rate(after.hits - before.hits, after.misses - before.misses);
        let m = &mut out.metrics;
        m.set("grid.allocs_per_op", allocs as f64 / ops);
        m.set("server.hit_rate", hit_rate);
        m.set(
            "server.evictions_per_op",
            (after.evictions - before.evictions) as f64 / ops,
        );
        m.set(
            "server.max_batched",
            live.conns.iter().map(|c| c.max_batched).max().unwrap_or(0) as f64,
        );
        m.set("server.shed", (after.shed - before.shed) as f64);
        m.set(
            "client.run_steps_p50_us",
            stats::quantile_sorted(&phase.op_us, 0.5),
        );
        m.set(
            "client.run_steps_p90_us",
            stats::quantile_sorted(&phase.op_us, 0.9),
        );
        m.set(
            "client.run_steps_p99_us",
            stats::quantile_sorted(&phase.op_us, 0.99),
        );
        m.set("client.run_steps_samples", ops);
        m.set(
            "plan.run_fixed_us",
            crate::compute::plan_run_fixed_us(2_000)?,
        );
        out.traced_phase(
            (phase.op_fast_us / plain.op_fast_us - 1.0) * 100.0,
            &plain,
            &phase,
        );
        budget(
            &mut live,
            &mix,
            &mut plans,
            length.mul_f64(0.2),
            &mut tracer,
            &mut out,
        )?;
        if let Some(path) = trace_out {
            crate::write_trace(&tracer, path)?;
        }
        out.note(format!("{} spans traced over {ops} requests", tracer.len()));
    }
    // Each workload must use the cache the way its rationale says.
    let as_intended = if mix.disjoint {
        hit_rate <= 0.05
    } else {
        hit_rate >= 0.99
    };
    if !as_intended {
        out.incorrect(format!(
            "hit rate {hit_rate:.4} is not what {} is for",
            workload.name()
        ));
    }
    count(tear_down(live));
    (out.attempted, out.failed) = tally;
    Ok(out)
}

fn rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}
