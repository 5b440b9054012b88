//! The three compute workloads: `jacobi-1t`, `gs-lcs-1t`, `tiled-2t`.
//!
//! One *op* is a **round**: every problem of the workload's fixed list
//! solved once by its prebuilt `Plan::run`, each from the same seeded
//! pristine state (restored by copy outside the timed spans), so an op
//! is always the same amount of work and its wall time is the sum of
//! the `Plan::run` times.

use crate::catalogue::{Metrics, Workload, TILED_KINDS};
use crate::measure::{Phase, Recorder, FAST};
use crate::stats;
use crate::trace::Tracer;
use crate::Outcome;
use std::time::{Duration, Instant};
use tempora_parallel::Pool;
use tempora_plan::{Method, Plan, PlanBuilder, Problem, Report, Select, State, Tiling};
use tempora_server::fresh_state;
use tempora_stencil::{
    reference, Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs,
    Heat3dCoeffs, LifeRule,
};

/// Every this-many-th round's outputs are compared with the first's.
const CHECK_EVERY: u64 = 64;

/// One problem of a workload's round.
#[derive(Clone, Copy)]
pub(crate) struct Case {
    /// Short kind name (`heat2d`), as used in metric names.
    pub kind: &'static str,
    /// Span name of this problem's `Plan::run`.
    pub span: &'static str,
    /// The problem.
    pub problem: Problem,
    /// How the workload compiles it.
    pub builder: PlanBuilder,
}

impl Case {
    /// Point updates one `Plan::run` performs, in millions.
    fn mupd(&self) -> f64 {
        (self.problem.points() * self.problem.steps()) as f64 / 1e6
    }
}

/// A [`Case`] whose span name is `plan.run/<kind>`.
macro_rules! case {
    ($kind:literal, $problem:expr, $builder:expr $(,)?) => {
        Case {
            kind: $kind,
            span: concat!("plan.run/", $kind),
            problem: $problem,
            builder: $builder,
        }
    };
}

/// The fixed problem list of a compute workload. `smoke` shrinks every
/// geometry for the smoke tests; `--seed` never changes a geometry.
pub(crate) fn cases(workload: Workload, smoke: bool) -> Vec<Case> {
    // (1-D points, 2-D edge, 3-D edge, LCS length) of the untiled
    // workloads: L2-resident grids. The step counts below are whole bands
    // of the temporal engines (multiples of 4; a remainder runs scalar)
    // and chosen so that the kinds of a round take within 2x of each other
    // (0.6-1.2 ms each at full size). Rounds are short on purpose: in a
    // disturbed regime of the design host a 5 ms round still finds gaps
    // between the bursts, a 15 ms one half as often (README, noise facts).
    let (n1, n2, n3, nl) = if smoke {
        (1 << 12, 64, 16, 256)
    } else {
        (1 << 16, 256, 40, 1024)
    };
    let untiled = PlanBuilder::new();
    match workload {
        Workload::Jacobi1t => vec![
            case!(
                "heat1d",
                Problem::heat1d(n1, 32, Heat1dCoeffs::classic(0.25)),
                untiled,
            ),
            case!(
                "heat2d",
                Problem::heat2d(n2, n2, 12, Heat2dCoeffs::classic(0.125)),
                untiled,
            ),
            case!(
                "box2d",
                Problem::box2d(n2, n2, 8, Box2dCoeffs::smooth(0.1)),
                untiled,
            ),
            case!(
                "heat3d",
                Problem::heat3d(n3, n3, n3, 4, Heat3dCoeffs::classic(0.1)),
                untiled,
            ),
            case!(
                "life",
                Problem::life(n2, n2, 16, LifeRule::b2s23()),
                untiled,
            ),
        ],
        Workload::GsLcs1t => vec![
            case!(
                "gs1d",
                Problem::gs1d(n1, 32, Gs1dCoeffs::classic(0.25)),
                untiled,
            ),
            case!(
                "gs2d",
                Problem::gs2d(n2, n2, 8, Gs2dCoeffs::classic(0.2)),
                untiled,
            ),
            case!(
                "gs3d",
                Problem::gs3d(n3, n3, n3, 4, Gs3dCoeffs::classic(0.1)),
                untiled,
            ),
            case!("lcs", Problem::lcs(nl, nl), untiled),
        ],
        Workload::Tiled2t => tiled_cases(smoke, 2),
        Workload::ServeHit | Workload::ServeChurn => Vec::new(),
    }
}

/// The `tiled-2t` problems compiled for `threads` workers: grids several
/// times the 2 MiB per-core L2, one per tiling scheme and dimension.
fn tiled_cases(smoke: bool, threads: usize) -> Vec<Case> {
    // (Heat-2D edge, its ghost block, Heat-3D edge, its ghost block,
    // GS-2D edge, its skew block, LCS length, its rectangle edge); 4-8
    // MiB per grid at full size, and each kind 30-45 ms of the round.
    let (n2, b2, n3, b3, ng, sb, nl, lb) = if smoke {
        (128, 32, 24, 8, 96, 48, 512, 128)
    } else {
        (1024, 128, 80, 16, 768, 192, 8192, 1024)
    };
    let (t2, tg, t3) = (24, 16, 8);
    let tiled = |tiling| PlanBuilder::new().tiling(tiling).threads(threads);
    vec![
        case!(
            "heat2d",
            Problem::heat2d(n2, n2, t2, Heat2dCoeffs::classic(0.125)),
            tiled(Tiling::Ghost {
                block: b2,
                height: 8,
            }),
        ),
        case!(
            "heat3d",
            Problem::heat3d(n3, n3, n3, t3, Heat3dCoeffs::classic(0.1)),
            tiled(Tiling::Ghost {
                block: b3,
                height: 4,
            }),
        ),
        case!(
            "gs2d",
            Problem::gs2d(ng, ng, tg, Gs2dCoeffs::classic(0.2)),
            tiled(Tiling::Skew {
                block: sb,
                height: 8,
            }),
        ),
        case!(
            "lcs",
            Problem::lcs(nl, nl),
            tiled(Tiling::LcsRect {
                xblock: lb,
                yblock: lb,
            }),
        ),
    ]
}

/// A compiled case with its states.
pub(crate) struct Built {
    case: Case,
    plan: Plan,
    /// The seeded input every run starts from.
    pristine: State,
    /// The state `Plan::run` advances; holds the last run's output.
    work: State,
    /// The first output, verified against the scalar reference.
    golden: State,
}

/// Copy the pristine input over the working state (no allocation).
fn restore(pristine: &State, work: &mut State) {
    match (pristine, work) {
        (State::Grid1(p), State::Grid1(w)) => w.data_mut().copy_from_slice(p.data()),
        (State::Grid2(p), State::Grid2(w)) => w.data_mut().copy_from_slice(p.data()),
        (State::Grid2i(p), State::Grid2i(w)) => w.data_mut().copy_from_slice(p.data()),
        (State::Grid3(p), State::Grid3(w)) => w.data_mut().copy_from_slice(p.data()),
        // A run reads the sequences and writes only the length.
        (State::Lcs(_), State::Lcs(w)) => w.length = None,
        // Both states come from the same `Problem`, so variants match.
        _ => {}
    }
}

/// Bitwise equality of two states of one problem, in place: a
/// `state_digest` would copy the whole state first, 8 MiB at a time on
/// `tiled-2t`, inside the measured phase.
fn same_bits(a: &State, b: &State) -> bool {
    let f64s = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (State::Grid1(a), State::Grid1(b)) => f64s(a.data(), b.data()),
        (State::Grid2(a), State::Grid2(b)) => f64s(a.data(), b.data()),
        (State::Grid2i(a), State::Grid2i(b)) => a.data() == b.data(),
        (State::Grid3(a), State::Grid3(b)) => f64s(a.data(), b.data()),
        (State::Lcs(a), State::Lcs(b)) => a.length == b.length && a.a == b.a && a.b == b.b,
        _ => false,
    }
}

/// Bitwise comparison of `out` with the scalar reference advanced from
/// `pristine`.
fn matches_reference(problem: &Problem, pristine: &State, out: &State) -> bool {
    match (*problem, pristine, out) {
        (Problem::Heat1d { coeffs, steps, .. }, State::Grid1(p), State::Grid1(o)) => {
            reference::heat1d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Gs1d { coeffs, steps, .. }, State::Grid1(p), State::Grid1(o)) => {
            reference::gs1d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Heat2d { coeffs, steps, .. }, State::Grid2(p), State::Grid2(o)) => {
            reference::heat2d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Box2d { coeffs, steps, .. }, State::Grid2(p), State::Grid2(o)) => {
            reference::box2d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Gs2d { coeffs, steps, .. }, State::Grid2(p), State::Grid2(o)) => {
            reference::gs2d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Life { rule, steps, .. }, State::Grid2i(p), State::Grid2i(o)) => {
            reference::life(p, rule, steps).interior_eq(o)
        }
        (Problem::Heat3d { coeffs, steps, .. }, State::Grid3(p), State::Grid3(o)) => {
            reference::heat3d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Gs3d { coeffs, steps, .. }, State::Grid3(p), State::Grid3(o)) => {
            reference::gs3d(p, coeffs, steps).interior_eq(o)
        }
        (Problem::Lcs { .. }, State::Lcs(p), State::Lcs(o)) => {
            o.length == Some(reference::lcs_len(&p.a, &p.b))
        }
        _ => false,
    }
}

/// The complete set-up a user pays before the first result, timed: for
/// every case `PlanBuilder::build`, `Problem::state()` with the seeded
/// fill, and the first `Plan::run`. The pristine copies the harness
/// needs are made after the clock stops.
fn set_up(cases: &[Case], seed: u64) -> Result<(Vec<Built>, f64), String> {
    let start = Instant::now();
    let mut parts = Vec::with_capacity(cases.len());
    for (i, c) in cases.iter().enumerate() {
        let mut plan = c
            .builder
            .build(&c.problem)
            .map_err(|e| format!("{}: build failed: {e}", c.kind))?;
        let mut work = fresh_state(&c.problem, seed.wrapping_add(i as u64));
        plan.run(&mut work)
            .map_err(|e| format!("{}: first run failed: {e}", c.kind))?;
        parts.push((plan, work));
    }
    let seconds = start.elapsed().as_secs_f64();
    let built = cases
        .iter()
        .zip(parts)
        .enumerate()
        .map(|(i, (c, (plan, work)))| Built {
            case: *c,
            plan,
            pristine: fresh_state(&c.problem, seed.wrapping_add(i as u64)),
            golden: work.clone(),
            work,
        })
        .collect();
    Ok((built, seconds))
}

/// Counts of ops attempted and failed so far in a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// What a phase of rounds yields.
struct Rounds {
    /// The recorder's figures; `op_fast_us` is the sum over the cases of
    /// each case's own undisturbed `Plan::run` time at the reference
    /// clock. A round is rarely undisturbed from end to end in a
    /// disturbed regime; one problem's millisecond often is.
    phase: Phase,
    /// Undisturbed wall time of one turn of the harness loop at the
    /// reference clock, in microseconds: the round plus restores and
    /// span recording.
    turn_fast_us: f64,
}

/// Run rounds for `length`; the op clock only runs inside `Plan::run`.
/// With a tracer, each round is a `bench.round` span whose children are
/// the `plan.run/<kind>` spans.
fn run_phase(
    built: &mut [Built],
    length: Duration,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Rounds {
    let epoch = Instant::now();
    let mut rec = Recorder::start(epoch, length, 1 << 16);
    let mut case_us: Vec<Vec<f64>> = vec![Vec::with_capacity(1 << 16); built.len()];
    let mut turn_us = Vec::with_capacity(1 << 16);
    let mut round = 0u64;
    loop {
        let round_start = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("bench.round", round_start, round));
        let mut op = Duration::ZERO;
        let mut ok = true;
        for (b, us) in built.iter_mut().zip(&mut case_us) {
            restore(&b.pristine, &mut b.work);
            let t0 = Instant::now();
            let result = b.plan.run(&mut b.work);
            let t1 = Instant::now();
            op += t1 - t0;
            us.push((t1 - t0).as_secs_f64() * 1e6);
            ok &= result.is_ok();
            if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
                t.record(b.case.span, t0, t1, root, round);
            }
        }
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.close(root, Instant::now());
        }
        turn_us.push(round_start.elapsed().as_secs_f64() * 1e6);
        if round % CHECK_EVERY == 0 {
            ok &= built.iter().all(|b| same_bits(&b.work, &b.golden));
        }
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        round += 1;
        let now = rec.op_done(op);
        rec.maybe_cut(now);
        if now >= length {
            rec.close();
            let mut phase = rec.finish(&[]);
            let fast = |us: &[f64]| {
                let at_reference: Vec<f64> =
                    us.iter().zip(&phase.op_clock).map(|(u, c)| u * c).collect();
                stats::quantile(&at_reference, FAST)
            };
            let turn_fast_us = fast(&turn_us);
            phase.op_fast_us = case_us.iter().map(|us| fast(us)).sum();
            return Rounds {
                phase,
                turn_fast_us,
            };
        }
    }
}

/// Timed runs of one plan from its pristine state; returns each run's
/// wall time in microseconds and the last report.
fn time_runs(
    plan: &mut Plan,
    pristine: &State,
    work: &mut State,
    reps: usize,
) -> Result<(Vec<f64>, Report), String> {
    let mut us = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        restore(pristine, work);
        let t = Instant::now();
        let report = plan.run(work);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        last = Some(report.map_err(|e| format!("probe run failed: {e}"))?);
    }
    last.map(|report| (us, report))
        .ok_or_else(|| "probe ran zero times".to_owned())
}

/// What probing one configuration of one problem yields.
struct Probe {
    /// Undisturbed ([`FAST`] quantile) run time, microseconds.
    fast_us: f64,
    /// The last run's report.
    report: Report,
}

/// Build `builder`'s plan for `problem` three times; returns the last
/// plan and the median build time in microseconds.
fn build_timed(problem: &Problem, builder: PlanBuilder) -> Result<(Plan, f64), String> {
    let mut builds = Vec::new();
    loop {
        let t = Instant::now();
        let plan = builder
            .build(problem)
            .map_err(|e| format!("probe build failed: {e}"))?;
        builds.push(t.elapsed().as_secs_f64() * 1e6);
        if builds.len() == 3 {
            return Ok((plan, stats::median(&builds)));
        }
    }
}

/// Mean over `cases` of the median build time of `builder_of(case)`.
fn mean_build_us(cases: &[Case], builder_of: impl Fn(&Case) -> PlanBuilder) -> Result<f64, String> {
    let mut sum = 0.0;
    for c in cases {
        sum += build_timed(&c.problem, builder_of(c))?.1;
    }
    Ok(sum / cases.len().max(1) as f64)
}

/// Time `reps` runs of `builder`'s plan for `problem` after one warm-up
/// run.
fn probe(problem: &Problem, builder: PlanBuilder, seed: u64, reps: usize) -> Result<Probe, String> {
    let mut plan = builder
        .build(problem)
        .map_err(|e| format!("probe build failed: {e}"))?;
    let pristine = fresh_state(problem, seed);
    let mut work = pristine.clone();
    time_runs(&mut plan, &pristine, &mut work, 1)?;
    let (us, report) = time_runs(&mut plan, &pristine, &mut work, reps)?;
    Ok(Probe {
        fast_us: stats::quantile(&us, FAST),
        report,
    })
}

/// `plan.run_fixed_us`: `Plan::run` on a 64-point, 4-step problem — the
/// fixed dispatch cost of the plan layer.
pub(crate) fn plan_run_fixed_us(reps: usize) -> Result<f64, String> {
    let problem = Problem::heat1d(64, 4, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new()
        .build(&problem)
        .map_err(|e| format!("fixed-cost build failed: {e}"))?;
    let pristine = fresh_state(&problem, 1);
    let mut work = pristine.clone();
    let (us, _) = time_runs(&mut plan, &pristine, &mut work, reps)?;
    Ok(stats::median(&us))
}

/// Payload bytes of a state (grid including halo, or both sequences).
pub(crate) fn state_bytes(state: &State) -> usize {
    match state {
        State::Grid1(g) => std::mem::size_of_val(g.data()),
        State::Grid2(g) => std::mem::size_of_val(g.data()),
        State::Grid2i(g) => std::mem::size_of_val(g.data()),
        State::Grid3(g) => std::mem::size_of_val(g.data()),
        State::Lcs(l) => l.a.len() + l.b.len(),
    }
}

/// `grid.fill_mib_per_s`: the seeded fill of a fresh state, MiB of grid
/// payload per second.
pub(crate) fn fill_mib_per_s(problem: &Problem, reps: usize) -> f64 {
    let mut us = Vec::with_capacity(reps);
    let mut bytes = 0usize;
    for seed in 0..reps as u64 {
        let t = Instant::now();
        let state = fresh_state(problem, seed);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        bytes = state_bytes(&state);
    }
    bytes as f64 / (1 << 20) as f64 / (stats::median(&us) / 1e6)
}

/// The layer probes of the two untiled workloads: each kind's rate from
/// its traced `Plan::run` spans (`fast_us`, one per case), the "vs
/// paper" ratios with their bases, and the reorganisation-op budget.
fn probe_untiled(
    cases: &[Case],
    fast_us: &[f64],
    seed: u64,
    reps: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let method = |method| PlanBuilder::new().method(method);
    for (c, &ours_us) in cases.iter().zip(fast_us) {
        let rate_of = |us: f64| c.mupd() / (us / 1e6);
        let base = |meth| probe(&c.problem, method(meth), seed, reps).map(|p| rate_of(p.fast_us));
        let ours = rate_of(ours_us);
        m.set(&format!("core.{}.mupd_per_s", c.kind), ours);
        match c.kind {
            "heat1d" => {
                let scalar = base(Method::Scalar)?;
                let multiload = base(Method::Multiload)?;
                m.set("stencil.heat1d.scalar_mupd_per_s", scalar);
                m.set("baseline.heat1d.multiload_mupd_per_s", multiload);
                m.set("baseline.heat1d.reorg_mupd_per_s", base(Method::Reorg)?);
                m.set("baseline.heat1d.dlt_mupd_per_s", base(Method::Dlt)?);
                m.set("core.heat1d.x_vs_scalar", ours / scalar);
                m.set("core.heat1d.x_vs_multiload", ours / multiload);
            }
            "heat2d" => {
                let multiload = base(Method::Multiload)?;
                m.set("baseline.heat2d.multiload_mupd_per_s", multiload);
                m.set("core.heat2d.x_vs_multiload", ours / multiload);
            }
            "lcs" => {
                let scalar = base(Method::Scalar)?;
                m.set("stencil.lcs.scalar_mupd_per_s", scalar);
                m.set("core.lcs.x_vs_scalar", ours / scalar);
            }
            _ => {}
        }
        if matches!(c.kind, "heat1d" | "gs1d") {
            // Only the portable 1-D temporal engine is instrumented.
            let counted = PlanBuilder::new()
                .select(Select::Portable)
                .count_reorg(true);
            let p = probe(&c.problem, counted, seed, 1)?;
            let per_vector = p.report.reorg.map_or(0.0, |r| r.reorg_per_output());
            m.set(&format!("simd.reorg_per_vector.{}", c.kind), per_vector);
        }
    }
    Ok(())
}

/// The layer probes of `tiled-2t`: what tiling costs at one thread, what
/// the second thread gains (`fast_us`: each case's traced 2-thread run
/// time), and what the pool costs awake and idle.
fn probe_tiled(
    built: &[Built],
    fast_us: &[f64],
    smoke: bool,
    seed: u64,
    reps: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let one_thread = tiled_cases(smoke, 1);
    for ((c, one), &two_us) in built.iter().map(|b| b.case).zip(one_thread).zip(fast_us) {
        debug_assert!(TILED_KINDS.contains(&c.kind));
        let untiled = probe(&c.problem, PlanBuilder::new(), seed, reps)?;
        let tiled_1t = probe(&c.problem, one.builder, seed, reps)?;
        m.set(
            &format!("core.{}.mupd_per_s", c.kind),
            c.mupd() / (untiled.fast_us / 1e6),
        );
        m.set(
            &format!("tiling.{}.x_over_untiled", c.kind),
            tiled_1t.fast_us / untiled.fast_us,
        );
        m.set(
            &format!("parallel.{}.speedup_2t", c.kind),
            tiled_1t.fast_us / two_us,
        );
    }

    let pool = Pool::new(2);
    let mut us = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let t = Instant::now();
        pool.for_each_index(2, |i| {
            std::hint::black_box(i);
        });
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("parallel.dispatch_us", stats::median(&us));
    // `built` still holds the four live 2-thread plans, and `pool` a
    // fifth pair of workers: all idle for the next 200 ms.
    let idle = Duration::from_millis(200);
    let before = crate::procfs::process_cpu_ns();
    std::thread::sleep(idle);
    let spent = crate::procfs::process_cpu_ns().saturating_sub(before);
    m.set(
        "parallel.idle_cpu_share",
        spent as f64 / idle.as_nanos() as f64,
    );
    Ok(())
}

/// Run one compute workload; see the crate docs for the phases.
pub(crate) fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    trace_out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let cases = cases(workload, smoke);
    // The first set-up's plans and states are the ones measured. It is
    // repeated (throw-away instances, dropped untimed) in two batches,
    // before and after the measured phase, so that one disturbed stretch
    // cannot cover every repetition.
    let (mut built, first) = crate::at_reference_clock(|| set_up(&cases, seed))?;
    let mut setups = vec![first];
    let repeat = |setups: &mut Vec<f64>| {
        crate::repeat_setups(traced, smoke, setups, || {
            Ok(crate::at_reference_clock(|| set_up(&cases, seed))?.1)
        })
    };

    // Warm up, then read the peak resident set before anything else
    // allocates: a process that has set up once and run. Read later it
    // would measure what the reference grids and the repeated set-ups
    // leave behind in the allocator (20 MiB more or less from run to run
    // on `tiled-2t`), not the library.
    let mut tally = Tally::default();
    let length = Duration::from_secs_f64(seconds);
    run_phase(&mut built, length.mul_f64(0.05), None, &mut tally);
    let peak_rss_mib = crate::procfs::peak_rss_mib();

    for b in &built {
        tally.attempted += 1;
        if !matches_reference(&b.case.problem, &b.pristine, &b.golden) {
            tally.failed += 1;
            eprintln!("ledger: {} differs from the scalar reference", b.case.kind);
        }
    }
    repeat(&mut setups)?;

    let mut out = Outcome::new(traced);
    if !traced {
        let rounds = run_phase(&mut built, length, None, &mut tally);
        repeat(&mut setups)?;
        out.end_to_end(&rounds.phase, peak_rss_mib, &setups, String::new());
    } else {
        let plain = run_phase(&mut built, length.mul_f64(0.25), None, &mut tally);
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, 1 << 18);
        let allocs = tempora_grid::alloc_count();
        let before = tally.attempted;
        let traced_rounds = run_phase(
            &mut built,
            length.mul_f64(0.4),
            Some(&mut tracer),
            &mut tally,
        );
        let rounds = (tally.attempted - before).max(1);
        let allocs = tempora_grid::alloc_count() - allocs;
        let summary = tracer.summary();
        // The op clock stops before a span is recorded, so tracing is
        // charged on the whole turn of the loop, recording included.
        out.traced_phase(
            (traced_rounds.turn_fast_us / plain.turn_fast_us - 1.0) * 100.0,
            &plain.phase,
            &traced_rounds.phase,
        );
        let m = &mut out.metrics;
        m.set("grid.allocs_per_op", allocs as f64 / rounds as f64);
        if let Some(round) = summary.get("bench.round") {
            m.set(
                "bench.harness_self_pct",
                round.self_ns as f64 / round.total_ns.max(1) as f64 * 100.0,
            );
        }
        let fast_us: Vec<f64> = cases
            .iter()
            .map(|c| {
                summary
                    .get(c.span)
                    .map_or(0.0, |s| stats::quantile(&s.dur_us, FAST))
            })
            .collect();
        let probe_reps = if smoke { 2 } else { 7 };
        m.set(
            "plan.build_us",
            mean_build_us(&cases, |_| PlanBuilder::new())?,
        );
        m.set("plan.run_fixed_us", plan_run_fixed_us(2_000)?);
        if let Some(first) = cases.first() {
            m.set("grid.fill_mib_per_s", fill_mib_per_s(&first.problem, 9));
        }
        if workload == Workload::Tiled2t {
            m.set("plan.build_tiled_us", mean_build_us(&cases, |c| c.builder)?);
            probe_tiled(&built, &fast_us, smoke, seed, probe_reps, m)?;
        } else {
            probe_untiled(&cases, &fast_us, seed, probe_reps, m)?;
        }
        if let Some(path) = trace_out {
            crate::write_trace(&tracer, path)?;
        }
        out.note(format!(
            "{} spans traced over {rounds} rounds",
            tracer.len()
        ));
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    Ok(out)
}
