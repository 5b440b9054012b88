//! # tempora-bench — reproduction harness for the paper's evaluation
//!
//! The evaluation section (§4) is one table of nine benchmarks and, per
//! benchmark, one sequential and one parallel figure. [`BENCHMARKS`] is
//! that table — one [`Benchmark`] row per line of the paper's Table 1,
//! carrying the figure ids (`fig4a` … `fig5h`), the problem, the size
//! ladder and the tiling rule — and two runners draw every figure from
//! it. The `repro` binary derives its targets from the same table:
//!
//! | id | artefact | runner |
//! |---|---|---|
//! | `table1` | Table 1 problem/blocking sizes | [`table1`] |
//! | a row's `seq_id` | its sequential figure | [`seq_figure`] |
//! | a row's `par_id` | its parallel figure | [`par_figure`] |
//! | `ablate-reorg` | §3.3/§3.5 reorganization budgets | [`ablate_reorg`] |
//! | `ablate-stride` | §3.3 stride/ILP sweep, the three 1-D and the six slab kinds, default marked | [`ablate_stride`] |
//! | `ablate-baselines` | §2.2 baseline comparison | [`ablate_baselines`] |
//! | `ablate-boundary` | bare steady state vs whole tile, per kind and engine | [`ablate_boundary`] |
//! | `ablate-tiling` | untiled vs tiled on one and two threads, per Table-1 grid row | [`ablate_tiling`] |
//! | `ablate-digest` | `state_digest` vs its one-chain spec vs a word sum, per `State` variant | [`ablate_digest`] |
//! | `ablate-rows` | slab steady rows in cycles per vector against their port bound, ring in L1 and at the ledger geometry | [`ablate_rows`] |
//! | `ablate-vl` | the 1-D steady state at four and eight lanes, every stride: Mupd/s, cycles and reorganizations per output vector; both widths on each side of `auto`'s crossover | [`ablate_vl`], [`vl_shapes`] |
//!
//! Every series runs through the unified solver API
//! (`tempora_plan::Plan`): the harness compiles one plan per
//! configuration — geometry validated, engine resolved, scratch and
//! thread pool allocated once — and times repeated `plan.run(&mut
//! state)` calls, exactly the serving pattern the plan API exists for.
//! Every "our" series is the plan a user gets — default stride,
//! `TEMPORA_ENGINE` honoured — and records the engine and stride its plan
//! resolved; the JSON baselines carry them as the per-series `"engine"`,
//! `"engines"` and `"strides"` fields. The one exception is
//! [`vl_shapes`], which times the width `auto` does *not* pick and so
//! builds the executor for each engine itself.
//!
//! Measurements report **Gstencils/s** (grid points updated per second,
//! the paper's metric). The `scale` parameter shrinks the paper's problem
//! sizes by a linear factor so the full suite runs on a laptop; `scale =
//! 1` reproduces the paper's sizes (Table 1). Shapes — who wins, by what
//! factor, where curves cross — are the reproduction target, not
//! absolute numbers (different machine, different vector ISA).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

use tempora_core::engine::{Engine, KernelSpace};
use tempora_grid::{
    fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, random_sequence, SlabGrid,
};
use tempora_plan::{Method, PlanBuilder, Problem, Select, State, TileGeometry, Tiling};
use tempora_simd::count;
use tempora_stencil::{
    Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
    LifeRule,
};

/// One measured curve: label + `(x, Gstencils/s)` points, with the
/// resolved engine and worker count recorded **per point** (a sweep can
/// legitimately resolve different engines at different sizes, e.g. a
/// degenerate small LCS geometry falling back to portable — recording only
/// the first point's engine would misreport the rest of the curve).
#[derive(Clone, Debug)]
pub struct Series {
    /// Scheme name (`our`, `auto`, `scalar`, …).
    pub label: String,
    /// Per-point engine the plan resolved to (`portable` | `avx2`), for
    /// dispatched (temporal) series — sequential *and* tiling-driven
    /// parallel sweeps alike, LCS included. `None` entries for baseline
    /// schemes and non-dispatched methods. Same length as `points`.
    pub engines: Vec<Option<String>>,
    /// Per-point worker-thread count the measuring plan ran (1 for
    /// sequential sweeps, the x-axis core count for parallel sweeps).
    /// Same length as `points`.
    pub cores: Vec<usize>,
    /// Per-point temporal stride the plan resolved (`Plan::stride`), for
    /// dispatched (temporal) series; `None` entries otherwise. Same
    /// length as `points`.
    pub strides: Vec<Option<usize>>,
    /// `(x, Gstencils/s)` samples.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given scheme label.
    pub fn new(label: &str) -> Series {
        Series {
            label: label.to_string(),
            engines: vec![],
            cores: vec![],
            strides: vec![],
            points: vec![],
        }
    }

    /// Append one measured point with its worker count and, for a
    /// dispatched plan, the engine and stride it resolved.
    pub fn push(&mut self, x: f64, gst: f64, cores: usize, smp: &Sample) {
        self.points.push((x, gst));
        self.cores.push(cores);
        self.engines.push(smp.engine.map(str::to_string));
        self.strides.push(smp.engine.and(Some(smp.stride)));
    }

    /// Measure `builder`'s plan on `problem` ([`plan_sample`]) and append
    /// the point at `x`.
    fn measure(&mut self, x: f64, cores: usize, problem: &Problem, builder: PlanBuilder) {
        let smp = plan_sample(problem, builder);
        let gst = gstencils(problem.points(), problem.steps(), smp.secs);
        self.push(x, gst, cores, &smp);
    }

    /// Summary of the per-point engines: `None` when no point was
    /// dispatched, the engine name when every dispatched point agrees,
    /// and `"mixed"` when the sweep resolved different engines at
    /// different points.
    pub fn engine_summary(&self) -> Option<String> {
        let mut summary: Option<&str> = None;
        for e in self.engines.iter().flatten() {
            match summary {
                None => summary = Some(e),
                Some(s) if s == e => {}
                Some(_) => return Some("mixed".to_string()),
            }
        }
        summary.map(str::to_string)
    }

    /// Column heading: the label, suffixed with the resolved engine for
    /// dispatched series (`our:avx2`; `our:mixed` when the sweep did not
    /// resolve one engine throughout).
    pub fn column_label(&self) -> String {
        match self.engine_summary() {
            Some(e) => format!("{}:{e}", self.label),
            None => self.label.clone(),
        }
    }
}

/// One reproduced figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier (e.g. `fig4a`).
    pub id: String,
    /// Human title matching the paper.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// The measured curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as an aligned text table (the harness output format).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        out.push_str(&format!("{:>13}", self.xlabel));
        for s in &self.series {
            out.push_str(&format!("{:>13}", s.column_label()));
        }
        out.push('\n');
        let npts = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for i in 0..npts {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(i).map(|p| p.0))
                .unwrap_or(f64::NAN);
            if x == x.trunc() && x.abs() < 1e15 {
                out.push_str(&format!("{:>13}", x as i64));
            } else {
                out.push_str(&format!("{:>13.3}", x));
            }
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, g)) => out.push_str(&format!("{:>13.4}", g)),
                    None => out.push_str(&format!("{:>13}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`x,label1,label2,…`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push('x');
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
        }
        out.push('\n');
        let npts = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for i in 0..npts {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(i).map(|p| p.0))
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, g)) => out.push_str(&format!(",{g}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as a JSON object (`{"id", "title", "xlabel", "series"}`),
    /// the element format of the committed `BENCH_*.json` baselines.
    /// Each series carries the summary `"engine"` (when dispatched) plus
    /// per-point `"cores"`, `"engines"` and `"strides"` arrays aligned
    /// with `"points"`, so a reader can tell exactly which engine produced
    /// each sample, at which temporal stride and at how many workers.
    pub fn to_json(&self) -> String {
        let series: Vec<String> = self
            .series
            .iter()
            .map(|s| {
                let pts: Vec<String> = s
                    .points
                    .iter()
                    .map(|&(x, g)| format!("[{},{}]", json_num(x), json_num(g)))
                    .collect();
                let engine = match s.engine_summary() {
                    Some(e) => format!("\"engine\":\"{}\",", json_escape(&e)),
                    None => String::new(),
                };
                let cores: Vec<String> = s.cores.iter().map(|c| c.to_string()).collect();
                let engines: Vec<String> = s
                    .engines
                    .iter()
                    .map(|e| match e {
                        Some(e) => format!("\"{}\"", json_escape(e)),
                        None => "null".to_string(),
                    })
                    .collect();
                let strides: Vec<String> = s
                    .strides
                    .iter()
                    .map(|s| s.map_or("null".to_string(), |s| s.to_string()))
                    .collect();
                format!(
                    "{{\"label\":\"{}\",{engine}\"cores\":[{}],\"engines\":[{}],\"strides\":[{}],\"points\":[{}]}}",
                    json_escape(&s.label),
                    cores.join(","),
                    engines.join(","),
                    strides.join(","),
                    pts.join(",")
                )
            })
            .collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"xlabel\":\"{}\",\"series\":[{}]}}",
            json_escape(&self.id),
            json_escape(&self.title),
            json_escape(&self.xlabel),
            series.join(",")
        )
    }
}

/// Escape a string for embedding in a JSON document (quotes, backslashes
/// and control characters). Public so the `repro` binary can record
/// failure messages in the same JSON format as [`Figure::to_json`].
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number; JSON has no inf/NaN, so non-finite
/// measurements (e.g. throughput over a sub-resolution timing) become
/// `null` rather than corrupting the whole document.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One untimed warm-up call (faults in pages, warms caches and branch
/// predictors, spins up worker pools) followed by `reps` timed calls;
/// returns the **median** of the timed calls. The median is robust to the
/// one-off outliers a cold single-shot measurement produces (e.g. the
/// fig5g scalar dip in `BENCH_pr1.json`).
pub fn time_median<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f(); // warm-up, untimed
    let mut ts: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    ts.sort_by(f64::total_cmp);
    ts[ts.len() / 2]
}

/// The harness's standard measurement: warm-up plus median of 3.
pub fn time_stable<F: FnMut()>(f: F) -> f64 {
    time_median(f, 3)
}

/// Convert a measurement to Gstencils/s.
pub fn gstencils(points: usize, steps: usize, secs: f64) -> f64 {
    (points as f64) * (steps as f64) / secs / 1e9
}

/// Pick a step count so one measurement touches roughly `budget` point
/// updates: rounded up to a multiple of 4 (a whole number of `VL = 4`
/// temporal tiles) **then** clamped to `[lo, hi]`, so the result can
/// never exceed `hi`. Callers keep `lo` and `hi` multiples of 4 so the
/// clamp preserves the tile alignment.
pub fn choose_steps(points: usize, budget: f64, lo: usize, hi: usize) -> usize {
    let raw = (budget / points.max(1) as f64).round() as usize;
    (raw.div_ceil(4) * 4).clamp(lo, hi)
}

/// Per-measurement point-update budget (tuned so a full sequential sweep
/// finishes in minutes on a laptop).
pub const SEQ_BUDGET: f64 = 6.0e7;

const SEED: u64 = 0x7e3707a;

// ---------------------------------------------------------------------
// Plan-driven measurement
// ---------------------------------------------------------------------

/// One measurement: median wall time of repeated `plan.run` calls plus
/// the engine the plan resolved to (for dispatched temporal plans).
pub struct Sample {
    /// Median measured wall time, seconds.
    pub secs: f64,
    /// Resolved engine name (`portable` | `avx2`), for dispatched plans.
    pub engine: Option<&'static str>,
    /// The temporal stride the plan resolved (`Plan::stride`).
    pub stride: usize,
}

/// Compile `builder` against `problem`, build a state with a seeded
/// random interior, then measure repeated `plan.run(&mut state)` calls (warm-up + median of 3;
/// setup — validation, engine resolution, scratch and pool allocation —
/// happens once, outside the timed region, exactly as a serving system
/// would amortize it).
pub fn plan_sample(problem: &Problem, builder: PlanBuilder) -> Sample {
    let mut plan = builder
        .build(problem)
        // Panic-justification: every harness configuration is hard-coded
        // against its problem; a build failure is a bench-suite bug.
        .expect("bench configurations are valid by construction");
    let mut state = problem.state();
    fill_state(&mut state);
    let mut engine = None;
    let secs = time_stable(|| {
        // Panic-justification: the state comes from `problem.state()`, so
        // the shape check cannot fail; a poisoned plan aborts the bench.
        let report = plan.run(&mut state).expect("state matches plan");
        engine = report.engine.map(|e| e.name());
        std::hint::black_box(&state);
    });
    Sample {
        secs,
        engine,
        stride: plan.stride(),
    }
}

/// One plan's result in [`best_of_20_each`].
#[derive(Clone, Copy)]
struct Best {
    /// Fastest run, seconds.
    secs: f64,
    /// Fewest core cycles of a run ([`clock_ghz`] sampled around it).
    cycles: f64,
    /// Engine the plan resolved (`portable` for a plan that dispatches
    /// none).
    engine: &'static str,
    /// Tile geometry of a tiled plan.
    tiles: Option<TileGeometry>,
}

/// The core clock in GHz, from a dependent chain timed on the spot:
/// `x ← x·k ^ i` is one `imul` (3 cycles) and one `xor` (1) per link, and
/// the `xor` with the counter keeps the compiler from reassociating the
/// products. The fastest of three chains of 2¹² links (≈ 6 µs each): an
/// interrupted chain reads low, never high.
fn clock_ghz() -> f64 {
    const LINKS: u64 = 1 << 12;
    let k = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let chain = |_| {
        let t = Instant::now();
        std::hint::black_box((0..LINKS).fold(k, |x, i| x.wrapping_mul(k) ^ i));
        4.0 * LINKS as f64 / t.elapsed().as_secs_f64() / 1e9
    };
    (0..3).map(chain).fold(0.0, f64::max)
}

/// The ablations' measurement: compile each of `builders` against
/// `problem`, fill **one** state, and run the plans on it in turn, 21
/// rounds; per plan, the fastest run after the first round (the warm-up).
/// The minimum, not [`time_stable`]'s median of 3: these targets compare
/// code paths and gate on the ratio — which is also why the plans share
/// the state and alternate: where an allocation lands moves a small 3-D
/// run by a third, and that must not pass for a difference between plans.
/// Each run is also converted to core cycles by the faster of two clock
/// samples taken right before and after it, and the fewest kept: the host
/// steps each vCPU's clock by a quarter for a second at a time, so neither
/// a nominal frequency nor one sample per table would do.
fn best_of_20_each(problem: &Problem, builders: &[PlanBuilder]) -> Vec<Best> {
    let mut plans = vec![];
    for b in builders {
        // Panic-justification: every ablation configuration is hard-coded
        // against its problem; a build failure is a bench-suite bug.
        plans.push(b.build(problem).expect("bench configurations are valid"));
    }
    let mut state = problem.state();
    fill_state(&mut state);
    let mut best: Vec<Best> = plans
        .iter()
        .map(|p| Best {
            secs: f64::INFINITY,
            cycles: f64::INFINITY,
            engine: p.engine().map_or("portable", |e| e.name()),
            tiles: None,
        })
        .collect();
    for rep in 0..=20 {
        for (plan, best) in plans.iter_mut().zip(&mut best) {
            let before = clock_ghz();
            let t = Instant::now();
            // Panic-justification: the state comes from `problem.state()`.
            let report = plan.run(&mut state).expect("state matches plan");
            let secs = t.elapsed().as_secs_f64();
            if rep > 0 {
                best.secs = best.secs.min(secs);
                best.cycles = best.cycles.min(secs * before.max(clock_ghz()) * 1e9);
            }
            best.tiles = report.tiles;
            std::hint::black_box(&state);
        }
    }
    best
}

/// [`best_of_20_each`] for one plan.
fn best_of_20(problem: &Problem, builder: PlanBuilder) -> Best {
    best_of_20_each(problem, &[builder])[0]
}

/// The timing loop of [`engine_runs`] and `lcs_runs`: `run(i)` for each
/// of `n` workspaces in turn, 21 rounds of `reps` runs each; per
/// workspace `[seconds, cycles]` of the fastest run after the first round
/// and the fewest cycles, as [`best_of_20_each`] states them.
fn alternate(n: usize, reps: usize, mut run: impl FnMut(usize)) -> Vec<[f64; 2]> {
    let mut best = vec![[f64::INFINITY; 2]; n];
    for round in 0..=20 {
        for (i, best) in best.iter_mut().enumerate() {
            let before = clock_ghz();
            let t = Instant::now();
            for _ in 0..reps {
                run(i);
            }
            let secs = t.elapsed().as_secs_f64() / reps as f64;
            if round > 0 {
                best[0] = best[0].min(secs);
                best[1] = best[1].min(secs * before.max(clock_ghz()) * 1e9);
            }
        }
    }
    best
}

/// [`engine_runs`] for LCS: the untiled band wave of one seeded `la × lb`
/// table at stride `s` on each of `engines`, through
/// `tempora_tiling::LcsRect` built for the engine directly — a plan
/// resolves one engine, and these ablations time the others too, at any
/// shape ([`alternate`]).
fn lcs_runs(la: usize, lb: usize, s: usize, engines: &[Engine]) -> Vec<Best> {
    let pool = tempora_parallel::Pool::new(1);
    let mut state = Problem::lcs(la, lb).state();
    fill_state(&mut state);
    let State::Lcs(l) = &state else {
        unreachable!("an LCS problem has an LCS state")
    };
    let mut ws: Vec<tempora_tiling::LcsRect> = engines
        .iter()
        .map(|&e| tempora_tiling::LcsRect::new(la, lb, la.max(1), lb.max(1), s, Some(e)))
        .collect();
    let reps = (100_000 / (la * lb).max(1)).max(1);
    let best = alternate(ws.len(), reps, |i| {
        std::hint::black_box(ws[i].run(&l.a, &l.b, &pool));
    });
    ws.iter()
        .zip(best)
        .map(|(w, [secs, cycles])| Best {
            secs,
            cycles,
            engine: w.engine().map_or("portable", |e| e.name()),
            tiles: None,
        })
        .collect()
}

/// The `std::arch` LCS engines of this host, at both widths: eight lanes
/// (AVX2) and sixteen (AVX-512) — or the portable engine alone under
/// `TEMPORA_ENGINE=portable` or without AVX2, and eight lanes alone under
/// `TEMPORA_ENGINE=avx2`.
fn lcs_widths(sel: Select) -> Vec<Engine> {
    if sel == Select::Portable || !tempora_simd::arch::avx2_available() {
        return vec![Engine::Portable];
    }
    let wide = sel == Select::Auto && tempora_simd::arch::avx512_available();
    [Engine::Avx2]
        .into_iter()
        .chain(wide.then_some(Engine::Avx512))
        .collect()
}

/// Fill helper: seeded random interior for whichever grid the state
/// holds; LCS states get two random 4-symbol sequences.
fn fill_state(state: &mut State) {
    match state {
        State::Grid1(g) => fill_random_1d(g, SEED, -1.0, 1.0),
        State::Grid2(g) => fill_random_2d(g, SEED, -1.0, 1.0),
        State::Grid2i(g) => fill_random_life(g, SEED, 0.35),
        State::Grid3(g) => fill_random_3d(g, SEED, -1.0, 1.0),
        State::Lcs(l) => {
            let (la, lb) = (l.a.len(), l.b.len());
            l.a = random_sequence(la, 4, SEED);
            l.b = random_sequence(lb, 4, SEED + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// The problem-size column of Table 1 with everything that hangs off it:
/// how the parallel figures scale it down and which sizes the sequential
/// figures sweep. One per dimensionality, shared by its rows.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    /// The paper's problem size, as Table 1 prints it.
    pub paper: &'static str,
    /// A run updates `n^dim` points per step at edge length `n`.
    pub dim: u32,
    /// Parallel figures: the paper's edge length and the floor it is
    /// scaled down to.
    pub size: (usize, usize),
    /// Parallel figures: the paper's step count, its floor, and the cap
    /// that keeps runtimes laptop-sized.
    pub steps: (usize, usize, usize),
    /// Sequential figures sweep `2^lo_exp, 2^(lo_exp+1), …`
    pub lo_exp: u32,
    /// … up to this edge length at a given scale.
    pub cap: fn(usize) -> usize,
    /// Plot the sweep against `log2(N)` rather than `N`.
    pub log2_axis: bool,
    /// Most time steps one sequential measurement takes.
    pub steps_hi: usize,
}

impl Geometry {
    /// The sequential sweep's edge lengths at `scale`.
    fn sizes(&self, scale: usize) -> Vec<usize> {
        (self.lo_exp..usize::BITS)
            .map(|e| 1usize << e)
            .take_while(|&n| n <= (self.cap)(scale))
            .collect()
    }

    /// The step count a sequential measurement at edge length `n` runs.
    fn sweep_steps(&self, n: usize) -> usize {
        choose_steps(n.pow(self.dim), SEQ_BUDGET, 4, self.steps_hi)
    }
}

/// `caps[k]` for the `k`-th scale tier: paper sizes, ≤ 4, ≤ 16, beyond.
fn tier(scale: usize, caps: [usize; 4]) -> usize {
    caps[match scale {
        0..=1 => 0,
        2..=4 => 1,
        5..=16 => 2,
        _ => 3,
    }]
}

const LINE: Geometry = Geometry {
    paper: "16000000 x 6000",
    dim: 1,
    size: (16_000_000, 4096),
    steps: (6000, 64, 256),
    lo_exp: 7,
    cap: |scale| 1 << tier(scale, [23, 22, 20, 18]),
    log2_axis: true,
    steps_hi: 65536,
};

const SQUARE: Geometry = Geometry {
    paper: "8000^2 x 2000",
    dim: 2,
    size: (8000, 128),
    steps: (2000, 32, 64),
    lo_exp: 7,
    cap: |scale| 8192 / scale.clamp(1, 8),
    log2_axis: false,
    steps_hi: 2000,
};

const CUBE: Geometry = Geometry {
    paper: "800^3 x 200",
    dim: 3,
    size: (800, 32),
    steps: (200, 16, 32),
    lo_exp: 4,
    cap: |scale| tier(scale, [512, 256, 128, 128]),
    log2_axis: false,
    steps_hi: 512,
};

/// LCS takes no step count: one run fills the whole `n × n` table, so its
/// "steps" are its `n` rows and its problem ignores the swept count.
const LCS_TABLE: Geometry = Geometry {
    paper: "200000 x 200000",
    dim: 1,
    size: (200_000, 2048),
    steps: (200_000, 2048, usize::MAX),
    lo_exp: 7,
    cap: |scale| 1 << tier(scale, [17, 16, 14, 14]),
    log2_axis: true,
    steps_hi: 4,
};

/// The time tiling of a row's parallel figure, with the rule that scales
/// the paper's block down. A `(paper, floor)` pair is divided by the
/// scale like [`Geometry::size`].
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `Tiling::Ghost` (the Jacobi rows). The height is the paper's,
    /// clamped to `steps / 2` and `block / 4`, in whole `vl`-level tiles;
    /// the plan validates and reports it, its schedule — sweeps cut into
    /// chunks of `block` — does not depend on it.
    Ghost {
        /// Block edge, `(paper, floor)`.
        block: (usize, usize),
        /// The paper's time-block height.
        height: usize,
        /// Lanes of the row's engine.
        vl: usize,
    },
    /// `Tiling::Skew` (the Gauss-Seidel rows). The height is the
    /// paper's, clamped to `steps / steps_div` and to the bound the plan
    /// validates, `block - VL·s - VL` at the row's default stride `s`;
    /// as for `Ghost`, the schedule does not depend on it.
    Skew {
        /// Blocks per edge and the floor of the block edge.
        blocks: (usize, usize),
        /// The paper's time-block height.
        height: usize,
        /// Fewest bands the scaled step count must give.
        steps_div: usize,
    },
    /// Square rectangles of the LCS table behind a wavefront.
    Rect {
        /// Block edge, `(paper, floor)`.
        block: (usize, usize),
    },
}

/// One line of the paper's Table 1 and the two figures drawn from it.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Benchmark name; the figures are titled `<name> Sequential` and
    /// `<name> Parallel`.
    pub name: &'static str,
    /// The paper's blocking size, as Table 1 prints it.
    pub paper_block: &'static str,
    /// Id of the sequential figure (left column of Figures 4 and 5).
    pub seq_id: &'static str,
    /// Id of the parallel figure (right column).
    pub par_id: &'static str,
    /// The problem at edge length `n`, advanced `steps` time steps.
    pub problem: fn(usize, usize) -> Problem,
    /// Problem sizes, paper and swept.
    pub geometry: &'static Geometry,
    /// Time tiling of the parallel figure.
    pub family: Family,
    /// Whether a multi-load "auto" series exists (spatial vectorization
    /// of Gauss-Seidel loops is illegal, and LCS has no such form; the
    /// plan API rejects both).
    pub auto: bool,
}

/// The paper's Table 1, in its order.
pub static BENCHMARKS: [Benchmark; 9] = [
    Benchmark {
        name: "Heat-1D",
        paper_block: "16384 x 128",
        seq_id: "fig4a",
        par_id: "fig4b",
        problem: |n, steps| Problem::heat1d(n, steps, Heat1dCoeffs::classic(0.25)),
        geometry: &LINE,
        family: Family::Ghost {
            block: (16384, 512),
            height: 128,
            vl: 4,
        },
        auto: true,
    },
    Benchmark {
        name: "Heat-2D",
        paper_block: "256^2 x 64",
        seq_id: "fig4c",
        par_id: "fig4d",
        problem: |n, steps| Problem::heat2d(n, n, steps, Heat2dCoeffs::classic(0.125)),
        geometry: &SQUARE,
        family: Family::Ghost {
            block: (256, 32),
            height: 64,
            vl: 4,
        },
        auto: true,
    },
    Benchmark {
        name: "2D9P",
        paper_block: "256^2 x 64",
        seq_id: "fig4g",
        par_id: "fig4h",
        problem: |n, steps| Problem::box2d(n, n, steps, Box2dCoeffs::smooth(0.1)),
        geometry: &SQUARE,
        family: Family::Ghost {
            block: (256, 32),
            height: 64,
            vl: 4,
        },
        auto: true,
    },
    Benchmark {
        name: "Heat-3D",
        paper_block: "32^3 x 8",
        seq_id: "fig4e",
        par_id: "fig4f",
        problem: |n, steps| Problem::heat3d(n, n, n, steps, Heat3dCoeffs::classic(1.0 / 6.0)),
        geometry: &CUBE,
        family: Family::Ghost {
            block: (32, 8),
            height: 8,
            vl: 4,
        },
        auto: true,
    },
    Benchmark {
        name: "Life",
        paper_block: "256^2 x 32",
        seq_id: "fig4i",
        par_id: "fig4j",
        problem: |n, steps| Problem::life(n, n, steps, LifeRule::b2s23()),
        geometry: &SQUARE,
        family: Family::Ghost {
            block: (256, 32),
            height: 32,
            vl: 8,
        },
        auto: true,
    },
    Benchmark {
        name: "GS-1D",
        paper_block: "2048 x 64",
        seq_id: "fig5a",
        par_id: "fig5b",
        problem: |n, steps| Problem::gs1d(n, steps, Gs1dCoeffs::classic(0.25)),
        geometry: &LINE,
        family: Family::Skew {
            blocks: (64, 512),
            height: 64,
            steps_div: 8,
        },
        auto: false,
    },
    Benchmark {
        name: "GS-2D",
        paper_block: "128^2 x 32",
        seq_id: "fig5c",
        par_id: "fig5d",
        problem: |n, steps| Problem::gs2d(n, n, steps, Gs2dCoeffs::classic(0.2)),
        geometry: &SQUARE,
        family: Family::Skew {
            blocks: (4, 32),
            height: 32,
            steps_div: 4,
        },
        auto: false,
    },
    Benchmark {
        name: "GS-3D",
        paper_block: "32^3 x 32",
        seq_id: "fig5e",
        par_id: "fig5f",
        problem: |n, steps| Problem::gs3d(n, n, n, steps, Gs3dCoeffs::classic(0.125)),
        geometry: &CUBE,
        family: Family::Skew {
            blocks: (2, 24),
            height: 32,
            steps_div: 4,
        },
        auto: false,
    },
    Benchmark {
        name: "LCS",
        paper_block: "4096 x 4096",
        seq_id: "fig5g",
        par_id: "fig5h",
        problem: |n, _| Problem::lcs(n, n),
        geometry: &LCS_TABLE,
        family: Family::Rect { block: (4096, 256) },
        auto: false,
    },
];

/// A row's parallel figure at one scale: edge length, step count and the
/// tiling, block and height clamped to the scaled problem.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Edge length.
    pub n: usize,
    /// Time steps (`n` table rows for LCS).
    pub steps: usize,
    /// The row's tiling at this scale.
    pub tiling: Tiling,
}

/// Compile a hard-coded bench configuration.
fn plan_of(problem: &Problem, builder: PlanBuilder) -> tempora_plan::Plan {
    builder
        .build(problem)
        // Panic-justification: every harness configuration is hard-coded
        // against its (non-empty) problem; a build failure is a bench-suite
        // bug.
        .expect("bench configurations are valid by construction")
}

/// The temporal stride a default-built plan of `problem` runs, under
/// `TEMPORA_ENGINE`: each engine has its own 1-D defaults.
fn default_stride(problem: &Problem) -> usize {
    plan_of(problem, PlanBuilder::new().select(Select::from_env())).stride()
}

impl Benchmark {
    /// The Table-1 configuration divided by `scale` (linear dimensions),
    /// with step counts shortened so runtimes stay laptop-sized.
    pub fn parallel_config(&self, scale: usize) -> ParallelConfig {
        let d = |(paper, lo): (usize, usize)| (paper / scale.max(1)).max(lo);
        let g = self.geometry;
        let n = d(g.size);
        let steps = d((g.steps.0, g.steps.1)).min(g.steps.2);
        // A tile is a whole number of `vl`-level vectors, at least one.
        let whole = |height: usize, vl: usize| height.max(vl) / vl * vl;
        let tiling = match self.family {
            Family::Ghost { block, height, vl } => {
                let block = d(block);
                Tiling::Ghost {
                    block,
                    height: whole(height.min(steps / 2).min(block / 4), vl),
                }
            }
            Family::Skew {
                blocks: (per_edge, lo),
                height,
                steps_div,
            } => {
                const VL: usize = 4;
                let block = (n / per_edge).max(lo);
                // The stride is the kind's, whatever the size.
                let s = default_stride(&(self.problem)(VL * 16, VL));
                let disjoint = block.saturating_sub(VL * s + VL);
                Tiling::Skew {
                    block,
                    height: whole(height.min(steps / steps_div).min(disjoint), VL),
                }
            }
            Family::Rect { block } => Tiling::LcsRect {
                xblock: d(block),
                yblock: d(block),
            },
        };
        ParallelConfig { n, steps, tiling }
    }

    /// The series of this row's figures on `tiling`: temporal ("our"),
    /// multi-load ("auto", where the row has one) and scalar. "our" is
    /// the plan a user gets — default stride, `TEMPORA_ENGINE` honoured.
    fn builders(&self, tiling: Tiling) -> Vec<(&'static str, PlanBuilder)> {
        let sel = Select::from_env();
        let base = PlanBuilder::new().tiling(tiling);
        // Untiled baselines are what the compiler gives on this host,
        // whatever `TEMPORA_ENGINE` forces on "our"; a tiling workspace
        // takes the selection for every method it runs in its tiles.
        let spatial = if tiling == Tiling::None {
            base
        } else {
            base.select(sel)
        };
        let mut builders = vec![("our", base.select(sel))];
        if self.auto {
            builders.push(("auto", spatial.method(Method::Multiload)));
        }
        builders.push(("scalar", spatial.method(Method::Scalar)));
        builders
    }
}

/// Reproduce Table 1: benchmark names, paper problem/blocking sizes, and
/// the sizes this harness actually runs at the given `scale` divisor.
pub fn table1(scale: usize) -> String {
    let s = scale.max(1);
    let mut out = format!(
        "# table1 — Problem and blocking sizes (paper vs this run, scale 1/{s})\n\
         {:<10}{:>22}{:>16}{:>34}\n",
        "benchmark", "paper size", "paper block", "this run"
    );
    for row in &BENCHMARKS {
        let p = row.parallel_config(s);
        let edge = format!("{}{}", p.n, ["", "^2", "^3"][row.geometry.dim as usize - 1]);
        let this_run = match p.tiling {
            Tiling::Ghost { block, height } | Tiling::Skew { block, height } => {
                format!("{edge} x {} / blk {block}x{height}", p.steps)
            }
            Tiling::LcsRect { xblock, .. } => format!("{}^2 / blk {xblock}^2", p.n),
            Tiling::None => format!("{edge} x {}", p.steps),
        };
        out.push_str(&format!(
            "{:<10}{:>22}{:>16}{:>34}\n",
            row.name, row.geometry.paper, row.paper_block, this_run
        ));
    }
    out
}

// ---------------------------------------------------------------------
// The two figure runners
// ---------------------------------------------------------------------

/// One sequential sweep: every builder's plan on `problem(n, steps)` at
/// each edge length of `g`'s ladder.
fn seq_sweep(
    id: &str,
    title: &str,
    problem: fn(usize, usize) -> Problem,
    g: &Geometry,
    scale: usize,
    builders: &[(&'static str, PlanBuilder)],
) -> Figure {
    let mut series: Vec<Series> = builders.iter().map(|(l, _)| Series::new(l)).collect();
    for n in g.sizes(scale) {
        let problem = problem(n, g.sweep_steps(n));
        let x = if g.log2_axis {
            (n as f64).log2()
        } else {
            n as f64
        };
        for (s, &(_, builder)) in series.iter_mut().zip(builders) {
            s.measure(x, 1, &problem, builder);
        }
    }
    Figure {
        id: id.into(),
        title: title.into(),
        xlabel: if g.log2_axis { "log2(N)" } else { "N" }.into(),
        series,
    }
}

/// The sequential figure of a Table-1 row: Gstencils/s against problem
/// size, untiled, one thread.
pub fn seq_figure(row: &Benchmark, scale: usize) -> Figure {
    seq_sweep(
        row.seq_id,
        &format!("{} Sequential", row.name),
        row.problem,
        row.geometry,
        scale,
        &row.builders(Tiling::None),
    )
}

fn core_counts(max_cores: usize) -> Vec<usize> {
    let mut v: Vec<usize> = vec![1];
    let mut c = 2;
    while c <= max_cores {
        v.push(c);
        c += if c < 4 { 1 } else { 4 };
    }
    v
}

/// The parallel figure of a Table-1 row: Gstencils/s of the row's tiling
/// at its scaled Table-1 configuration against the worker count. Each
/// plan owns its pool and resolves its in-tile engine.
pub fn par_figure(row: &Benchmark, scale: usize, max_cores: usize) -> Figure {
    let cfg = row.parallel_config(scale);
    let problem = (row.problem)(cfg.n, cfg.steps);
    let builders = row.builders(cfg.tiling);
    let mut series: Vec<Series> = builders.iter().map(|(l, _)| Series::new(l)).collect();
    for cores in core_counts(max_cores) {
        for (s, &(_, builder)) in series.iter_mut().zip(&builders) {
            // plan_sample's built-in warm-up faults in pages and spins up
            // the plan's workers before the three timed runs. Workers are
            // pinned one-per-core (best-effort) so the core-count axis
            // means what it says.
            s.measure(
                cores as f64,
                cores,
                &problem,
                builder.threads(cores).pin(true),
            );
        }
    }
    Figure {
        id: row.par_id.into(),
        title: format!("{} Parallel", row.name),
        xlabel: "cores".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// §3.3/§3.5 reorganization-instruction budgets, measured through plan
/// reports (`PlanBuilder::count_reorg`): the temporal scheme's constant
/// per-output-vector cost versus the data-reorganization baseline.
pub fn ablate_reorg() -> String {
    let c = Heat1dCoeffs::classic(0.25);
    let n = 1 << 14;
    let mut out = String::new();
    out.push_str("# ablate-reorg — data-reorganization ops per output vector (1D3P, vl=4)\n");
    out.push_str(&format!(
        "{:<28}{:>10}{:>12}{:>10}{:>10}\n",
        "scheme", "in-lane", "cross-lane", "total", "gathers"
    ));
    let mut line = |name: &str, k: count::Counts| {
        out.push_str(&format!(
            "{:<28}{:>10.3}{:>12.3}{:>10.3}{:>10}\n",
            name,
            k.in_lane_per_output(),
            k.cross_lane_per_output(),
            k.reorg_per_output(),
            k.gather,
        ));
    };
    let counted = |method: Method| -> count::Counts {
        let problem = Problem::heat1d(n, 4, c);
        let mut plan = PlanBuilder::new()
            .method(method)
            .stride(7)
            .select(Select::Portable)
            .count_reorg(true)
            .build(&problem)
            // Panic-justification: the configuration is hard-coded above;
            // a build failure is an ablation-harness bug.
            .expect("counting configuration is valid");
        let mut state = problem.state();
        fill_state(&mut state);
        plan.run(&mut state)
            // Panic-justification: the state comes from `problem.state()`.
            .expect("state matches plan")
            .reorg
            // Panic-justification: `count_reorg(true)` was set on the
            // builder two lines up, so the report always carries counts.
            .expect("count_reorg plans report counts")
    };
    line("temporal (ours)", counted(Method::Temporal));
    line("data-reorganization", counted(Method::Reorg));
    out.push_str(
        "\npaper's analysis: temporal = 1 rotate (cross-lane) + 1 blend (in-lane)\n\
         per output vector, independent of vl, order and dimension; the\n\
         data-reorganization baseline needs >= 2 shuffles per vector and grows\n\
         with stencil order and dimensionality (§3.5).\n",
    );
    out
}

/// One row of [`ablate_stride`]: one kind at one stride.
#[derive(Clone, Debug)]
pub struct StrideRow {
    /// Workload kind (`heat1d` | `gs1d` | `lcs` | a slab kind).
    pub kind: &'static str,
    /// The space stride `s` of this row.
    pub stride: usize,
    /// Engine the plan resolved to (`avx512` | `avx2` | `portable`).
    pub engine: &'static str,
    /// Throughput, million point-updates per second (best of 20 runs).
    pub mupd_per_s: f64,
    /// True when a default-built plan of this kind runs this stride
    /// (`Plan::stride`) — under the same selection, so each engine's own
    /// default is the one marked.
    pub default: bool,
    /// True when the resolved engine keeps this stride's ring in
    /// registers (`t1d_avx2::REGISTER_STRIDES` /
    /// `lcs_avx2::REGISTER_STRIDES` on AVX2,
    /// `t1d_avx2::ZMM_REGISTER_STRIDES` on AVX-512; never on the portable
    /// engine).
    pub registers: bool,
}

/// The `ablate-stride` table: throughput per kind and stride, with the
/// default and the register-specialised strides marked.
#[derive(Clone, Debug)]
pub struct StrideTable {
    /// 1-D points, LCS length, 2-D edge and 3-D edge of the swept
    /// geometry.
    pub geometry: [usize; 4],
    /// One row per kind and accepted stride, strides ascending per kind.
    pub rows: Vec<StrideRow>,
}

impl StrideTable {
    /// `row`'s throughput as a share of the best row of its kind on its
    /// engine (LCS has rows at both widths).
    pub fn vs_best(&self, row: &StrideRow) -> f64 {
        let best = self
            .rows
            .iter()
            .filter(|r| r.kind == row.kind && r.engine == row.engine)
            .map(|r| r.mupd_per_s)
            .fold(0.0, f64::max);
        row.mupd_per_s / best
    }

    /// Render as an aligned text table (`*` marks a kind's default
    /// stride, `r` a register-specialised one).
    pub fn to_table(&self) -> String {
        let [n1, nl, n2, n3] = self.geometry;
        let mut out = format!(
            "# ablate-stride — temporal stride sweep (1-D {n1} x 32 steps, LCS {nl}², 2-D {n2}², \
             3-D {n3}³; * = default stride, r = ring in registers)\n\
             {:<8}{:>8}{:>6}{:>10}{:>12}{:>10}\n",
            "kind", "stride", "", "engine", "Mupd/s", "vs best"
        );
        for r in &self.rows {
            let marks = format!(
                "{}{}",
                if r.default { "*" } else { "" },
                if r.registers { "r" } else { "" }
            );
            out.push_str(&format!(
                "{:<8}{:>8}{:>6}{:>10}{:>12.0}{:>10.2}\n",
                r.kind,
                r.stride,
                marks,
                r.engine,
                r.mupd_per_s,
                self.vs_best(r)
            ));
        }
        out
    }

    /// Render as a JSON object (`{"id", "geometry", "rows"}`), one entry
    /// of the `repro --json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"kind\":\"{}\",\"stride\":{},\"engine\":\"{}\",\"mupd_per_s\":{},\
                     \"vs_best\":{},\"default\":{},\"registers\":{}}}",
                    r.kind,
                    r.stride,
                    r.engine,
                    json_num(r.mupd_per_s),
                    json_num(self.vs_best(r)),
                    r.default,
                    r.registers
                )
            })
            .collect();
        let [n1, nl, n2, n3] = self.geometry;
        format!(
            "{{\"id\":\"ablate-stride\",\"geometry\":[{n1},{nl},{n2},{n3}],\"rows\":[{}]}}",
            rows.join(",")
        )
    }

    /// The `std::arch` (AVX2 and AVX-512) rows at their kind's default
    /// stride that run below `floor` × the kind's best row — a default
    /// that no longer sits on the plateau, or a default stride whose
    /// register-ring instantiation was dropped (the rolled in-memory ring
    /// measures ≈ 0.45).
    pub fn avx2_defaults_under(&self, floor: f64) -> Vec<&StrideRow> {
        self.rows
            .iter()
            .filter(|r| r.default && r.engine != "portable" && self.vs_best(r) < floor)
            .collect()
    }

    /// The rows that resolved the portable engine: none on an AVX2 host
    /// under `auto`, where every accepted stride resolves by capability —
    /// a row that does runs through libm's `fma` at a sixteenth of its
    /// neighbours' speed (the `s = 16` rows of the 1-D kinds once did).
    pub fn portable_rows(&self) -> Vec<&StrideRow> {
        self.rows
            .iter()
            .filter(|r| r.engine == "portable")
            .collect()
    }
}

/// §3.3 stride sweep: throughput of the temporal engines as the space
/// stride `s` — and with it the number of in-flight input vectors —
/// varies, over every stride Heat-1D and GS-1D accept, `s = 1..=3` for
/// LCS at both widths (eight and, on AVX-512 hosts, sixteen lanes; each
/// engine's workspace built directly, `lcs_runs`) and `s = 2..=4` for
/// the six slab kinds (whose ring of `s + 2` slabs
/// lives in memory at any stride: the narrowest ring wins), at the
/// `ledger` benchmark's geometry (`scale` = 16; `scale` ≥ 256 gives its
/// `--smoke` geometry; LCS never below the ledger's 1024², the narrowest
/// table `auto` runs at sixteen lanes — at 256² their head and tail
/// triangles, which grow with `s`, put `s = 1` far ahead).
pub fn ablate_stride(scale: usize) -> StrideTable {
    use tempora_core::kernels::JacobiKern1d;
    use tempora_core::{lcs_avx2, t1d_avx2};
    let d = scale.max(1);
    // LCS from 1024² up: the narrowest table `auto` runs at sixteen lanes.
    let (n1, nl) = (((1usize << 20) / d).max(1 << 12), (16384 / d).max(1024));
    let (n2, n3) = ((4096 / d).max(64), (640 / d).max(16));
    let sel = Select::from_env();
    let grid_strides = JacobiKern1d::MIN_STRIDE..=JacobiKern1d::MAX_STRIDE;
    // The strides whose ring stays in registers, at four and at eight
    // lanes; no slab stride keeps its ring there.
    let none = 0..=0;
    let slab = |k: &SlabKind| {
        let dims = if k.three_d { [n3; 3] } else { [n2, n2, 1] };
        let problem = (k.problem)(dims, k.ledger_steps);
        (k.name, problem, 2..=4, [none.clone(), none.clone()])
    };
    let zmm = t1d_avx2::ZMM_REGISTER_STRIDES;
    let kinds = [
        (
            "heat1d",
            Problem::heat1d(n1, 32, Heat1dCoeffs::classic(0.25)),
            grid_strides.clone(),
            [t1d_avx2::REGISTER_STRIDES, zmm.clone()],
        ),
        (
            "gs1d",
            Problem::gs1d(n1, 32, Gs1dCoeffs::classic(0.25)),
            grid_strides,
            [t1d_avx2::REGISTER_STRIDES, zmm],
        ),
    ];
    let mut rows = vec![];
    for (kind, problem, strides, [ymm, zmm]) in kinds.into_iter().chain(SLAB_KINDS.iter().map(slab))
    {
        let default = default_stride(&problem);
        for s in strides {
            let Best { secs, engine, .. } =
                best_of_20(&problem, PlanBuilder::new().stride(s).select(sel));
            rows.push(StrideRow {
                kind,
                stride: s,
                engine,
                mupd_per_s: (problem.points() * problem.steps()) as f64 / secs / 1e6,
                default: s == default,
                registers: match engine {
                    "avx2" => ymm.contains(&s),
                    "avx512" => zmm.contains(&s),
                    _ => false,
                },
            });
        }
    }
    // LCS at both widths, each engine's workspace built directly: `auto`
    // picks sixteen lanes only from 1024 columns on.
    let default = default_stride(&Problem::lcs(nl, nl));
    for engine in lcs_widths(sel) {
        for s in 1..=3 {
            let [best] = lcs_runs(nl, nl, s, &[engine])[..] else {
                unreachable!("one run per engine")
            };
            rows.push(StrideRow {
                kind: "lcs",
                stride: s,
                engine: best.engine,
                mupd_per_s: (nl * nl) as f64 / best.secs / 1e6,
                default: s == default,
                registers: engine != Engine::Portable && lcs_avx2::REGISTER_STRIDES.contains(&s),
            });
        }
    }
    StrideTable {
        geometry: [n1, nl, n2, n3],
        rows,
    }
}

/// One row of [`ablate_vl`]: one kind at one lane count and stride.
#[derive(Clone, Debug)]
pub struct VlRow {
    /// `heat1d` | `gs1d` | `heat2d` | `box2d` | `gs2d` | `lcs1024` |
    /// `lcs8192`.
    pub kind: &'static str,
    /// Lanes of the steady state: 4 (`Ymm`) or 8 (`Zmm`); LCS 8 (`Ymm`)
    /// or 16 (`Zmm`).
    pub vl: usize,
    /// The space stride `s` of this row.
    pub stride: usize,
    /// Engine the row ran (`avx2` at four lanes, `avx512` at eight).
    pub engine: &'static str,
    /// Throughput, million point-updates per second (best of 20 runs).
    pub mupd_per_s: f64,
    /// Core cycles per steady-state output vector (best of the same 20
    /// runs, the whole run's cycles over its steady vectors).
    pub cycles_per_vector: f64,
    /// Counted reorganization ops (rotates + blends) per output vector of
    /// one run at this stride: 2 at every width, the paper's claim (NaN for
    /// LCS, whose sweep is not instrumented).
    pub reorg_per_vector: f64,
    /// True at this lane count's default stride.
    pub default: bool,
    /// True when this lane count keeps the stride's ring in registers.
    pub registers: bool,
}

/// One problem of the `ledger` benchmark and the engine a default plan
/// of it resolves under `auto`.
#[derive(Clone, Debug)]
pub struct VlLedgerRow {
    /// `kind n x steps`.
    pub problem: String,
    /// What `auto` resolved.
    pub engine: &'static str,
    /// What it must resolve on an AVX-512 host.
    pub expect: &'static str,
}

/// The `ablate-vl` table: the 1-D kinds at four and eight lanes over
/// every accepted stride, the `f64` 2-D kinds at both at their default
/// stride, LCS at eight and sixteen, the engine `auto` resolves for each
/// of the ledger's problems with a wider sweep, and both widths around
/// `auto`'s crossovers.
#[derive(Clone, Debug)]
pub struct VlTable {
    /// Points and steps of the swept 1-D problems.
    pub geometry: (usize, usize),
    /// One row per 1-D kind, lane count and stride.
    pub rows: Vec<VlRow>,
    /// Edge and steps of the 2-D problems of [`VlTable::slab_rows`].
    pub slab_geometry: (usize, usize),
    /// One row per `f64` 2-D kind and lane count, at stride 2.
    pub slab_rows: Vec<VlRow>,
    /// One row per LCS table (the ledger's 1024² and 8192²: kinds
    /// `lcs1024`, `lcs8192`) and lane count, untiled at stride 2.
    pub lcs_rows: Vec<VlRow>,
    /// `(kind, gain)`: the eight-lane default plan's throughput over the
    /// four-lane default plan's, the two timed alternately on one state
    /// (best of 20 each); absent without both engines.
    pub gains: Vec<(&'static str, f64)>,
    /// The ledger's problems of the kinds with an eight-lane sweep.
    pub ledger: Vec<VlLedgerRow>,
    /// Both widths timed over the shapes around `auto`'s crossovers
    /// ([`vl_shapes`]).
    pub shapes: Vec<VlShapeRow>,
}

impl VlTable {
    /// `kind`'s eight-lane default plan over its four-lane default plan,
    /// in throughput; `None` without both (a host without AVX-512F).
    pub fn default_gain(&self, kind: &str) -> Option<f64> {
        self.gains.iter().find(|(k, _)| *k == kind).map(|&(_, g)| g)
    }

    /// Render as an aligned text table (`*` marks a lane count's default
    /// stride, `r` a stride whose ring stays in registers).
    pub fn to_table(&self) -> String {
        let (n, steps) = self.geometry;
        let header = format!(
            "{:<8}{:>4}{:>8}{:>6}{:>10}{:>12}{:>11}{:>11}\n",
            "kind", "vl", "stride", "", "engine", "Mupd/s", "cyc/vec", "reorg/vec"
        );
        let mut out = format!(
            "# ablate-vl — one steady state at four and eight lanes (1-D {n} x {steps} steps; \
             * = default stride, r = ring in registers)\n{header}"
        );
        let line = |r: &VlRow| {
            let marks = format!(
                "{}{}",
                if r.default { "*" } else { "" },
                if r.registers { "r" } else { "" }
            );
            format!(
                "{:<8}{:>4}{:>8}{:>6}{:>10}{:>12.0}{:>11.2}{:>11.2}\n",
                r.kind,
                r.vl,
                r.stride,
                marks,
                r.engine,
                r.mupd_per_s,
                r.cycles_per_vector,
                r.reorg_per_vector
            )
        };
        out.extend(self.rows.iter().map(line));
        if !self.slab_rows.is_empty() {
            let (n, steps) = self.slab_geometry;
            out.push_str(&format!(
                "# the f64 2-D kinds, ring in L1 by segments ({n}^2 x {steps} steps)\n{header}"
            ));
            out.extend(self.slab_rows.iter().map(line));
        }
        if !self.lcs_rows.is_empty() {
            out.push_str(&format!(
                "# LCS, untiled n^2 tables (lcs1024, lcs8192), eight and sixteen i32 lanes\n{header}"
            ));
            out.extend(self.lcs_rows.iter().map(line));
        }
        for (kind, gain) in &self.gains {
            out.push_str(&format!(
                "{kind}: eight-lane default / four-lane default = {gain:.2} (timed in pairs)\n"
            ));
        }
        for r in &self.ledger {
            out.push_str(&format!(
                "auto resolves {}: {} (expected on avx512 hosts: {})\n",
                r.problem, r.engine, r.expect
            ));
        }
        if !self.shapes.is_empty() {
            out.push_str(&format!(
                "# both widths at their default strides around auto's crossovers (2-D and \
                 LCS: n^2; narrow = four f64 / eight i32 lanes, wide = eight / sixteen)\n\
                 {:<8}{:>6}{:>6}{:>8}{:>11}{:>11}{:>8}\n",
                "kind", "nx", "steps", "auto", "narrow µs", "wide µs", "gain"
            ));
        }
        for r in &self.shapes {
            out.push_str(&format!(
                "{:<8}{:>6}{:>6}{:>8}{:>11.2}{:>11.2}{:>8.2}\n",
                r.kind,
                r.nx,
                r.steps,
                r.auto,
                r.narrow_us,
                r.wide_us,
                r.gain()
            ));
        }
        out
    }

    /// Render as a JSON object (`{"id", "geometry", "rows", "slab_rows",
    /// "lcs_rows", "gains", "ledger", "shapes"}`), one entry of the `repro
    /// --json` document.
    pub fn to_json(&self) -> String {
        let row = |r: &VlRow| {
            format!(
                "{{\"kind\":\"{}\",\"vl\":{},\"stride\":{},\"engine\":\"{}\",\"mupd_per_s\":{},\
                 \"cycles_per_vector\":{},\"reorg_per_vector\":{},\"default\":{},\
                 \"registers\":{}}}",
                r.kind,
                r.vl,
                r.stride,
                r.engine,
                json_num(r.mupd_per_s),
                json_num(r.cycles_per_vector),
                json_num(r.reorg_per_vector),
                r.default,
                r.registers
            )
        };
        let rows: Vec<String> = self.rows.iter().map(row).collect();
        let slab_rows: Vec<String> = self.slab_rows.iter().map(row).collect();
        let lcs_rows: Vec<String> = self.lcs_rows.iter().map(row).collect();
        let ledger: Vec<String> = self
            .ledger
            .iter()
            .map(|r| {
                format!(
                    "{{\"problem\":\"{}\",\"engine\":\"{}\",\"expect\":\"{}\"}}",
                    json_escape(&r.problem),
                    r.engine,
                    r.expect
                )
            })
            .collect();
        let gains: Vec<String> = self
            .gains
            .iter()
            .map(|(k, g)| format!("{{\"kind\":\"{k}\",\"default_gain\":{}}}", json_num(*g)))
            .collect();
        let shapes: Vec<String> = self
            .shapes
            .iter()
            .map(|r| {
                format!(
                    "{{\"kind\":\"{}\",\"nx\":{},\"steps\":{},\"auto\":\"{}\",\"narrow_us\":{},\
                     \"wide_us\":{},\"gain\":{}}}",
                    r.kind,
                    r.nx,
                    r.steps,
                    r.auto,
                    json_num(r.narrow_us),
                    json_num(r.wide_us),
                    json_num(r.gain())
                )
            })
            .collect();
        let ((n, steps), (n2, steps2)) = (self.geometry, self.slab_geometry);
        format!(
            "{{\"id\":\"ablate-vl\",\"geometry\":[{n},{steps}],\"rows\":[{}],\
             \"slab_geometry\":[{n2},{steps2}],\"slab_rows\":[{}],\"lcs_rows\":[{}],\
             \"gains\":[{}],\"ledger\":[{}],\"shapes\":[{}]}}",
            rows.join(","),
            slab_rows.join(","),
            lcs_rows.join(","),
            gains.join(","),
            ledger.join(","),
            shapes.join(",")
        )
    }
}

/// The kinds of [`SLAB_KINDS`] with an eight-lane sweep (the `f64` 2-D
/// ones), at interior extents `n × n` and `steps` levels.
fn wide_slab_kinds(n: usize, steps: usize) -> impl Iterator<Item = (&'static str, Problem)> {
    SLAB_KINDS
        .iter()
        .filter(|k| k.wide.is_some())
        .map(move |k| (k.name, (k.problem)([n, n, 1], steps)))
}

/// The vector-length claim measured (ROADMAP item 1): Heat-1D and GS-1D
/// through the one 1-D steady state at four lanes (`Select::Avx2`, `Ymm`)
/// and eight (`Select::Auto` on an AVX-512 host, `Zmm`) over every stride
/// the ring holds, at the `ledger` benchmark's compute geometry (65536
/// points, 32 steps, at any `--scale`: the gate below is about that
/// shape): throughput and core cycles per output vector, best of 20 runs
/// with the two widths alternating on one state, and the reorganization
/// ops a counted run of each row spends per output vector. Then each
/// kind's two default plans once more, alternating, for the gain the
/// `repro` gate reads. The `f64` 2-D kinds likewise at both widths
/// (`engine_runs`) at the ledger's 256² × 8 steps, their rings kept in
/// L1 by segments — counted too: 2 per vector in 2-D as in 1-D. LCS at
/// eight and sixteen `i32` lanes (`lcs_runs`) on the ledger's untiled
/// 1024² and on 8192² (not counted: its sweep is not instrumented). Last,
/// the engine `auto` resolves for the ledger's problems of these six
/// kinds, and both widths over the shapes of [`vl_shapes`], on each side
/// of each kind's crossover. A width the CPU lacks has no rows.
pub fn ablate_vl() -> VlTable {
    use tempora_core::kernels::JacobiKern1d;
    use tempora_core::t1d_avx2;
    let (n, steps) = (1 << 16, 32);
    let avx2 = tempora_simd::arch::avx2_available().then_some((4, Select::Avx2));
    let avx512 = tempora_simd::arch::avx512_available().then_some((8, Select::Auto));
    let widths: Vec<(usize, Select)> = avx2.into_iter().chain(avx512).collect();
    let kinds = [
        (
            "heat1d",
            Problem::heat1d(n, steps, Heat1dCoeffs::classic(0.25)),
        ),
        ("gs1d", Problem::gs1d(n, steps, Gs1dCoeffs::classic(0.25))),
    ];
    let (mut rows, mut gains) = (vec![], vec![]);
    for (kind, problem) in kinds {
        let defaults: Vec<PlanBuilder> = widths
            .iter()
            .map(|&(_, sel)| PlanBuilder::new().select(sel))
            .collect();
        let default_strides: Vec<usize> = defaults
            .iter()
            .map(|&b| plan_of(&problem, b).stride())
            .collect();
        for s in JacobiKern1d::MIN_STRIDE..=JacobiKern1d::MAX_STRIDE {
            let builders: Vec<PlanBuilder> = defaults.iter().map(|b| b.stride(s)).collect();
            let runs = best_of_20_each(&problem, &builders);
            for ((&(vl, _), b), (best, &default)) in widths
                .iter()
                .zip(builders)
                .zip(runs.iter().zip(&default_strides))
            {
                let mut counted = plan_of(&problem, b.count_reorg(true));
                let mut state = problem.state();
                fill_state(&mut state);
                let reorg = counted
                    .run(&mut state)
                    .ok()
                    .and_then(|r| r.reorg)
                    .map_or(f64::NAN, |k| k.reorg_per_output());
                let vectors = (steps / vl * (n + 1 - vl * s)) as f64;
                let registers = if vl == 8 {
                    t1d_avx2::ZMM_REGISTER_STRIDES
                } else {
                    t1d_avx2::REGISTER_STRIDES
                };
                rows.push(VlRow {
                    kind,
                    vl,
                    stride: s,
                    engine: best.engine,
                    mupd_per_s: (n * steps) as f64 / best.secs / 1e6,
                    cycles_per_vector: best.cycles / vectors,
                    reorg_per_vector: reorg,
                    default: s == default,
                    registers: registers.contains(&s),
                });
            }
        }
        if let [four, eight] = best_of_20_each(&problem, &defaults)[..] {
            gains.push((kind, four.secs / eight.secs));
        }
    }
    let (n2, steps2) = (256, 8);
    let engines: Vec<Engine> = widths
        .iter()
        .map(|&(vl, _)| {
            if vl == 8 {
                Engine::Avx512
            } else {
                Engine::Avx2
            }
        })
        .collect();
    let mut slab_rows = vec![];
    for (kind, problem) in wide_slab_kinds(n2, steps2) {
        for run in engine_runs(&problem, &engines) {
            let (vl, s) = (run.vl, SLAB_STRIDE);
            let vectors = (steps2 / vl * (n2 + 1 - vl * s) * n2) as f64;
            slab_rows.push(VlRow {
                kind,
                vl,
                stride: s,
                engine: run.best.engine,
                mupd_per_s: problem.points() as f64 * steps2 as f64 / run.best.secs / 1e6,
                cycles_per_vector: run.best.cycles / vectors,
                reorg_per_vector: run.reorg_per_vector,
                default: true,
                registers: false,
            });
        }
    }
    // LCS at eight and sixteen lanes: the ledger's untiled 1024² and the
    // 8192² its tiled run cuts into blocks.
    let mut lcs_rows = vec![];
    for (kind, n) in [("lcs1024", 1024), ("lcs8192", 8192)] {
        let s = default_stride(&Problem::lcs(n, n));
        for (&engine, best) in engines.iter().zip(lcs_runs(n, n, s, &engines)) {
            let vl = tempora_core::lcs::vl(engine);
            lcs_rows.push(VlRow {
                kind,
                vl,
                stride: s,
                engine: best.engine,
                mupd_per_s: (n * n) as f64 / best.secs / 1e6,
                cycles_per_vector: best.cycles / (n / vl * (n - vl * s)) as f64,
                reorg_per_vector: f64::NAN,
                default: true,
                registers: tempora_core::lcs_avx2::REGISTER_STRIDES.contains(&s),
            });
        }
    }
    let rect = |n| {
        PlanBuilder::new()
            .tiling(Tiling::LcsRect {
                xblock: n,
                yblock: n,
            })
            .threads(2)
    };
    let ledger = [
        (
            Problem::heat1d(1 << 16, 32, Heat1dCoeffs::classic(0.25)),
            "avx512",
        ),
        (
            Problem::gs1d(1 << 16, 32, Gs1dCoeffs::classic(0.25)),
            "avx512",
        ),
        (
            Problem::heat1d(4096, 32, Heat1dCoeffs::classic(0.25)),
            "avx512",
        ),
        // Twelve steps: four scalar levels at eight lanes, none at four.
        (
            Problem::heat2d(256, 256, 12, Heat2dCoeffs::classic(0.125)),
            "avx2",
        ),
        (
            Problem::box2d(256, 256, 8, Box2dCoeffs::smooth(0.1)),
            "avx512",
        ),
        (
            Problem::gs2d(256, 256, 8, Gs2dCoeffs::classic(0.2)),
            "avx512",
        ),
        (
            Problem::heat2d(1024, 1024, 24, Heat2dCoeffs::classic(0.125)),
            "avx512",
        ),
        (
            Problem::gs2d(768, 768, 16, Gs2dCoeffs::classic(0.2)),
            "avx512",
        ),
        (Problem::lcs(1024, 1024), "avx512"),
    ]
    .iter()
    .map(|&(p, expect)| (p, PlanBuilder::new(), expect))
    .chain([(Problem::lcs(8192, 8192), rect(1024), "avx512")])
    .map(|(p, builder, expect)| {
        let engine = plan_of(&p, builder).engine();
        VlLedgerRow {
            problem: format!("{} {} x {}", p.kind_name(), p.extents()[0], p.steps()),
            engine: engine.map_or("none", |e| e.name()),
            expect,
        }
    })
    .collect();
    VlTable {
        geometry: (n, steps),
        rows,
        slab_geometry: (n2, steps2),
        slab_rows,
        lcs_rows,
        gains,
        ledger,
        shapes: vl_shapes(),
    }
}

/// One row of [`vl_shapes`]: one kind at one shape, timed at its narrow
/// and its wide lane count (four and eight `f64` lanes, eight and sixteen
/// `i32` lanes for LCS), each at its engine's default stride.
#[derive(Clone, Debug)]
pub struct VlShapeRow {
    /// `heat1d` | `gs1d` | `heat2d` | `box2d` | `gs2d` | `lcs`.
    pub kind: &'static str,
    /// Outer extent: points of a line, the edge of a square (LCS: of an
    /// `n × n` table).
    pub nx: usize,
    /// Time steps (LCS: table rows).
    pub steps: usize,
    /// The engine a default plan of this shape resolves under `auto`.
    pub auto: &'static str,
    /// Fastest run at the narrow width (AVX2), µs.
    pub narrow_us: f64,
    /// Fastest run at the wide width (AVX-512), µs.
    pub wide_us: f64,
}

impl VlShapeRow {
    /// The wide width's throughput over the narrow one's.
    pub fn gain(&self) -> f64 {
        self.narrow_us / self.wide_us
    }

    /// True when `auto` took the slower width by more than `margin` (a
    /// ratio, e.g. 1.1): AVX-512 where the narrow width runs `margin` ×
    /// faster, or AVX2 where the wide one does.
    pub fn misresolved(&self, margin: f64) -> bool {
        match self.auto {
            "avx512" => self.gain() * margin < 1.0,
            _ => self.gain() > margin,
        }
    }
}

/// Where the wider lanes start to pay: Heat-1D and GS-1D over lines of
/// 128 … 4096 points at 32, 12 and 9 steps, and Heat-2D, 2D9P and GS-2D
/// over squares of 32² … 256² at 8, 16 and 9 steps, each shape untiled at
/// four lanes ([`Engine::Avx2`]) and eight ([`Engine::Avx512`]) at their
/// default strides (`engine_runs`: `auto` picks only one of them, and the
/// point is to time the one it does not); and LCS over `n × n` tables of
/// 128 … 8192 at eight and sixteen lanes (`lcs_runs`) — the rows that
/// set `tempora_core::lcs::WIDE_MIN_LB`. Each next to the engine a
/// default plan resolves. Empty without AVX-512F.
pub fn vl_shapes() -> Vec<VlShapeRow> {
    if !tempora_simd::arch::avx512_available() {
        return vec![];
    }
    let row = |kind, problem: Problem| {
        let [four, eight] = engine_runs(&problem, &[Engine::Avx2, Engine::Avx512])[..] else {
            unreachable!("one run per engine")
        };
        VlShapeRow {
            kind,
            nx: problem.extents()[0],
            steps: problem.steps(),
            auto: plan_of(&problem, PlanBuilder::new())
                .engine()
                .map_or("none", |e| e.name()),
            narrow_us: four.best.secs * 1e6,
            wide_us: eight.best.secs * 1e6,
        }
    };
    let (h, g) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    let mut rows = vec![];
    for steps in [32, 12, 9] {
        for nx in [128, 256, 512, 1024, 2048, 4096] {
            rows.push(row("heat1d", Problem::heat1d(nx, steps, h)));
            rows.push(row("gs1d", Problem::gs1d(nx, steps, g)));
        }
    }
    for steps in [8, 16, 9] {
        for n in [16, 32, 64, 128, 256] {
            for (kind, problem) in wide_slab_kinds(n, steps) {
                rows.push(row(kind, problem));
            }
        }
    }
    for n in [128, 256, 512, 1024, 2048, 4096, 8192] {
        let problem = Problem::lcs(n, n);
        let s = default_stride(&problem);
        let [narrow, wide] = lcs_runs(n, n, s, &[Engine::Avx2, Engine::Avx512])[..] else {
            unreachable!("one run per engine")
        };
        rows.push(VlShapeRow {
            kind: "lcs",
            nx: n,
            steps: n,
            auto: plan_of(&problem, PlanBuilder::new())
                .engine()
                .map_or("none", |e| e.name()),
            narrow_us: narrow.secs * 1e6,
            wide_us: wide.secs * 1e6,
        });
    }
    rows
}

/// One engine's executor in [`engine_runs`].
#[derive(Clone, Copy)]
struct EngineRun {
    /// Fastest run and fewest cycles, as [`best_of_20_each`] states them.
    best: Best,
    /// Lanes of the engine's sweeps for the problem's kernel.
    vl: usize,
    /// Rotates + blends per output vector of one counted run.
    reorg_per_vector: f64,
}

/// The untiled temporal run of grid `problem` on each of `engines`, at
/// each engine's default stride — through the one executor
/// (`tempora_tiling::Sweeps`) built for the engine directly, since a plan
/// resolves one engine and these ablations time the others too (a
/// `Select` cannot ask for [`Engine::Avx512`]). Like [`best_of_20_each`]:
/// the executors alternate on one seeded state, 21 rounds, each timing
/// enough runs to last ≈ 0.1 ms; per engine the fastest run after the
/// first round and the fewest cycles. Then one counted run per engine.
///
/// [`Engine::Avx512`]: tempora_core::engine::Engine::Avx512
fn engine_runs(problem: &Problem, engines: &[Engine]) -> Vec<EngineRun> {
    use tempora_core::kernels::*;
    let steps = problem.steps();
    let mut state = problem.state();
    fill_state(&mut state);
    match (*problem, state) {
        (Problem::Heat1d { coeffs, .. }, State::Grid1(g)) => {
            runs_of(JacobiKern1d(coeffs), g, steps, engines)
        }
        (Problem::Gs1d { coeffs, .. }, State::Grid1(g)) => {
            runs_of(GsKern1d(coeffs), g, steps, engines)
        }
        (Problem::Heat2d { coeffs, .. }, State::Grid2(g)) => {
            runs_of(JacobiKern2d(coeffs), g, steps, engines)
        }
        (Problem::Box2d { coeffs, .. }, State::Grid2(g)) => {
            runs_of(BoxKern2d(coeffs), g, steps, engines)
        }
        (Problem::Gs2d { coeffs, .. }, State::Grid2(g)) => {
            runs_of(GsKern2d(coeffs), g, steps, engines)
        }
        (Problem::Life { rule, .. }, State::Grid2i(g)) => {
            runs_of(LifeKern2d(rule), g, steps, engines)
        }
        (Problem::Heat3d { coeffs, .. }, State::Grid3(g)) => {
            runs_of(JacobiKern3d(coeffs), g, steps, engines)
        }
        (Problem::Gs3d { coeffs, .. }, State::Grid3(g)) => {
            runs_of(GsKern3d(coeffs), g, steps, engines)
        }
        _ => unreachable!("engine_runs times the grid kinds, on their own states"),
    }
}

/// [`engine_runs`] for kernel `kern` on grid `g`.
fn runs_of<K: KernelSpace>(
    kern: K,
    mut g: K::Grid,
    steps: usize,
    engines: &[Engine],
) -> Vec<EngineRun> {
    use tempora_tiling::{Mode, Sweeps};
    let (dims, bc) = (g.dims(), g.boundary());
    let pool = tempora_parallel::Pool::new(1);
    let sweeps = |e: Engine| {
        let mode = Mode::Temporal(K::default_stride(e));
        Sweeps::new(kern, dims, bc, steps, dims[0], mode, e)
    };
    let mut ws: Vec<Sweeps<K>> = engines.iter().map(|&e| sweeps(e)).collect();
    let reps = (100_000 / (dims.iter().product::<usize>() * steps).max(1)).max(1);
    let best = alternate(ws.len(), reps, |i| {
        ws[i].advance(&mut g, &pool);
        std::hint::black_box(&g);
    });
    engines
        .iter()
        .zip(best)
        .map(|(&e, [secs, cycles])| {
            let mut counted = sweeps(e).count_reorg(true);
            let session = count::Session::start();
            counted.advance(&mut g, &pool);
            EngineRun {
                best: Best {
                    secs,
                    cycles,
                    engine: e.name(),
                    tiles: None,
                },
                vl: K::vl(e),
                reorg_per_vector: session.finish().reorg_per_output(),
            }
        })
        .collect()
}

/// The five schemes of [`ablate_baselines`]; "our" is the plan a user
/// gets, like every figure's.
fn baseline_schemes() -> [(&'static str, PlanBuilder); 5] {
    [
        ("our", PlanBuilder::new().select(Select::from_env())),
        ("multiload", PlanBuilder::new().method(Method::Multiload)),
        ("reorg", PlanBuilder::new().method(Method::Reorg)),
        ("dlt", PlanBuilder::new().method(Method::Dlt)),
        ("scalar", PlanBuilder::new().method(Method::Scalar)),
    ]
}

/// §2.2 baseline comparison: all five sequential schemes on Heat-1D,
/// each as a plan method.
pub fn ablate_baselines(scale: usize) -> Figure {
    let ladder = Geometry {
        lo_exp: 10,
        cap: |scale| 1 << if scale <= 2 { 22 } else { 19 },
        steps_hi: 16384,
        ..LINE
    };
    seq_sweep(
        "ablate-baselines",
        "All vectorization schemes (Heat-1D sequential)",
        BENCHMARKS[0].problem,
        &ladder,
        scale,
        &baseline_schemes(),
    )
}

/// The steady loop of one AVX2 slab row as `objdump` shows it, per
/// output vector (README, "Slab steady state", has the recipe), and the
/// cycles it cannot go below on a core that issues six fused µops, two
/// FMA-port µops and two loads a cycle.
#[derive(Clone, Copy, Debug)]
pub struct RowModel {
    /// Instructions in the loop.
    pub insns: u32,
    /// Fused-domain µops (a compare-and-branch pair is one).
    pub uops: u32,
    /// µops that need an FMA port: `vfmadd`/`vmulpd`; Life's `vpmulld`
    /// (two) and `vpsrlvd`.
    pub fma_port: u32,
    /// Loads, folded into an arithmetic instruction or not.
    pub loads: u32,
    /// FMAs on the loop-carried chain through the previous output vector
    /// (Gauss-Seidel), 0 for the Jacobi rows.
    pub chain: u32,
}

impl RowModel {
    /// Latency of one `vfmadd`, cycles.
    const FMA_LATENCY: f64 = 4.0;

    /// Cycles per output vector the loop cannot beat: the loop-carried
    /// FMA chain for a Gauss-Seidel row, the busiest of the FMA ports,
    /// the load ports and the front end for a Jacobi row.
    pub fn cycles_per_vector(&self) -> f64 {
        let ports = (self.fma_port.max(self.loads) as f64 / 2.0).max(self.uops as f64 / 6.0);
        ports.max(self.chain as f64 * Self::FMA_LATENCY)
    }
}

/// One 2-D/3-D kind of the steady-state ablations, at the `ledger`
/// benchmark's step counts, rounded up to whole tiles of the lane count
/// that runs ([`SlabKind::steps`]).
#[derive(Debug)]
struct SlabKind {
    name: &'static str,
    /// Lanes of its sweep on the portable and AVX2 engines (one temporal
    /// tile advances this many levels).
    vl: usize,
    /// The `f64` 2-D kinds: the steady loop of their eight-lane sweep on
    /// `Engine::Avx512`.
    wide: Option<RowModel>,
    /// A slab is a plane (else a row).
    three_d: bool,
    /// The `ledger` benchmark's step count.
    ledger_steps: usize,
    /// The problem at interior extents `[nx, ny, nz]` (2-D: `nz` unused)
    /// and a step count.
    problem: fn([usize; 3], usize) -> Problem,
    /// Its AVX2 steady loop.
    model: RowModel,
}

impl SlabKind {
    /// Lanes of the kind's sweep on `engine`.
    fn lanes(&self, engine: Engine) -> usize {
        match (engine, self.wide) {
            (Engine::Avx512, Some(_)) => 8,
            _ => self.vl,
        }
    }

    /// The ledger's steps, up to whole tiles at `engine`'s lane count.
    fn steps(&self, engine: Engine) -> usize {
        self.ledger_steps.next_multiple_of(self.lanes(engine))
    }

    /// The steady loop `engine` runs (portable: the AVX2 one, as a bound).
    fn model(&self, engine: Engine) -> RowModel {
        match (engine, self.wide) {
            (Engine::Avx512, Some(wide)) => wide,
            _ => self.model,
        }
    }

    /// Interior points of one slab at `dims`.
    fn inner(&self, dims: [usize; 3]) -> usize {
        (self.problem)(dims, self.ledger_steps).points() / dims[0]
    }
}

/// The six slab kinds. The eight-lane loops' counts are per eight-lane
/// vector: at 512 bits the vector ports are p0 and p5, and p5 also takes
/// the rotate, the lane-0 insert of the blend (`vmovlpd` + `vinsertf32x4`)
/// and the top-lane `vextractf32x4`, so those four count as FMA-port µops.
static SLAB_KINDS: [SlabKind; 6] = [
    SlabKind {
        name: "heat2d",
        vl: 4,
        wide: Some(RowModel {
            insns: 17,
            uops: 16,
            fma_port: 9,
            loads: 4,
            chain: 0,
        }),
        three_d: false,
        ledger_steps: 12,
        problem: |[nx, ny, _], steps| Problem::heat2d(nx, ny, steps, Heat2dCoeffs::classic(0.125)),
        model: RowModel {
            insns: 17,
            uops: 16,
            fma_port: 5,
            loads: 4,
            chain: 0,
        },
    },
    SlabKind {
        name: "box2d",
        vl: 4,
        wide: Some(RowModel {
            insns: 21,
            uops: 20,
            fma_port: 13,
            loads: 8,
            chain: 0,
        }),
        three_d: false,
        ledger_steps: 8,
        problem: |[nx, ny, _], steps| Problem::box2d(nx, ny, steps, Box2dCoeffs::smooth(0.1)),
        model: RowModel {
            insns: 21,
            uops: 20,
            fma_port: 9,
            loads: 8,
            chain: 0,
        },
    },
    SlabKind {
        name: "life",
        vl: 8,
        wide: None,
        three_d: false,
        ledger_steps: 16,
        problem: |[nx, ny, _], steps| Problem::life(nx, ny, steps, LifeRule::b2s23()),
        // `vpmulld` and the `vpextrd` to memory are two µops each.
        model: RowModel {
            insns: 23,
            uops: 24,
            fma_port: 3,
            loads: 8,
            chain: 0,
        },
    },
    SlabKind {
        name: "gs2d",
        vl: 4,
        wide: Some(RowModel {
            insns: 18,
            uops: 17,
            fma_port: 9,
            loads: 4,
            chain: 2,
        }),
        three_d: false,
        ledger_steps: 8,
        problem: |[nx, ny, _], steps| Problem::gs2d(nx, ny, steps, Gs2dCoeffs::classic(0.2)),
        model: RowModel {
            insns: 18,
            uops: 17,
            fma_port: 5,
            loads: 4,
            chain: 2,
        },
    },
    SlabKind {
        name: "heat3d",
        vl: 4,
        wide: None,
        three_d: true,
        ledger_steps: 4,
        problem: |[nx, ny, nz], steps| {
            Problem::heat3d(nx, ny, nz, steps, Heat3dCoeffs::classic(0.1))
        },
        model: RowModel {
            insns: 19,
            uops: 18,
            fma_port: 7,
            loads: 6,
            chain: 0,
        },
    },
    SlabKind {
        name: "gs3d",
        vl: 4,
        wide: None,
        three_d: true,
        ledger_steps: 4,
        problem: |[nx, ny, nz], steps| Problem::gs3d(nx, ny, nz, steps, Gs3dCoeffs::classic(0.1)),
        model: RowModel {
            insns: 20,
            uops: 19,
            fma_port: 7,
            loads: 6,
            chain: 3,
        },
    },
];

/// The stride every slab kind defaults to (`ablate-stride` measures it).
const SLAB_STRIDE: usize = 2;

/// Rows of the grids of `ablate-rows`' column sweep: at 10× this, the
/// grid of 1024-column rows (1.3 MB) still fits the 2 MiB L2, so the sweep
/// prices the ring and not the grid's own traffic (with 64 rows, 512
/// columns and up read 1.2× from the grid alone, whatever the ring).
const WIDTH_ROWS: usize = 16;

/// One temporal tile of `kind` at interior extents `dims`, stride
/// [`SLAB_STRIDE`], on `engine` ([`engine_runs`]): `[seconds, cycles]` per
/// tile, and the same per steady-state slab. A tile's time is linear in
/// its steady-state slab count `x_max = nx + 1 - VL·s`, so the same
/// problem at 10× the outer extent gives the slope. Minimum of 20 runs
/// each.
fn tile_and_slab(kind: &SlabKind, dims: [usize; 3], engine: Engine) -> ([f64; 2], [f64; 2]) {
    let (vl, steps) = (kind.lanes(engine), kind.steps(engine));
    let tile = |nx: usize| {
        let problem = (kind.problem)([nx, dims[1], dims[2]], steps);
        let [run] = engine_runs(&problem, &[engine])[..] else {
            unreachable!("one run per engine")
        };
        assert_eq!(run.vl, vl, "{} on {engine:?}", kind.name);
        let tiles = (steps / vl) as f64;
        [run.best.secs / tiles, run.best.cycles / tiles]
    };
    let (t1, t10) = (tile(dims[0]), tile(10 * dims[0]));
    let per_slab = [0, 1].map(|u| (t10[u] - t1[u]) / (9 * dims[0]) as f64);
    (t1, per_slab)
}

/// The engines the per-engine ablations run: AVX2 and AVX-512 where the
/// CPU has them, then portable.
fn forced_engines() -> Vec<Engine> {
    let avx2 = tempora_simd::arch::avx2_available().then_some(Engine::Avx2);
    let avx512 = tempora_simd::arch::avx512_available().then_some(Engine::Avx512);
    avx2.into_iter()
        .chain(avx512)
        .chain([Engine::Portable])
        .collect()
}

/// The kinds of [`SLAB_KINDS`] with a sweep of their own on `engine`:
/// every kind, and on `Engine::Avx512` the eight-lane ones only (the others
/// run their AVX2 sweep there).
fn kinds_on(engine: Engine) -> impl Iterator<Item = &'static SlabKind> {
    SLAB_KINDS
        .iter()
        .filter(move |k| engine != Engine::Avx512 || k.wide.is_some())
}

/// One row of [`ablate_boundary`]: one kind under one engine selection.
#[derive(Clone, Debug)]
pub struct BoundaryRow {
    /// Workload kind (`heat2d` … `gs3d`).
    pub kind: &'static str,
    /// Engine the plan resolved to (`avx2` | `portable`).
    pub engine: &'static str,
    /// One whole temporal tile at the base geometry, µs.
    pub tile_us: f64,
    /// Its fixed part — prologue, ring fill/drain, epilogue — µs: what a
    /// tile with zero steady-state slabs would cost.
    pub boundary_us: f64,
    /// Cost of one point-update in the steady state, ns.
    pub steady_ns_per_update: f64,
    /// Cost of one point-update in the boundary phases, ns.
    pub boundary_ns_per_update: f64,
}

impl BoundaryRow {
    /// Share of the base-geometry tile spent in the boundary phases.
    pub fn boundary_share(&self) -> f64 {
        self.boundary_us / self.tile_us
    }

    /// How many times slower a boundary point-update is than a
    /// steady-state one. The paper's argument needs this to be a small
    /// constant; ≈ 20 means the boundary code is calling libm `fma`.
    pub fn ratio(&self) -> f64 {
        self.boundary_ns_per_update / self.steady_ns_per_update
    }
}

/// The `ablate-boundary` table: per kind and engine, where the time of a
/// temporal tile goes.
#[derive(Clone, Debug)]
pub struct BoundaryTable {
    /// `(2-D edge, 3-D edge)` of the base geometry.
    pub geometry: (usize, usize),
    /// One row per kind and resolved engine.
    pub rows: Vec<BoundaryRow>,
}

impl BoundaryTable {
    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let (n2, n3) = self.geometry;
        let mut out = format!(
            "# ablate-boundary — where the time goes in a tile \
             (base: 2-D {n2}², 3-D {n3}³; fitted against 10× the outer extent)\n\
             {:<8}{:>10}{:>11}{:>13}{:>8}{:>13}{:>15}{:>8}\n",
            "kind",
            "engine",
            "tile µs",
            "boundary µs",
            "share",
            "steady ns/u",
            "boundary ns/u",
            "ratio"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8}{:>10}{:>11.1}{:>13.1}{:>8.2}{:>13.2}{:>15.2}{:>8.1}\n",
                r.kind,
                r.engine,
                r.tile_us,
                r.boundary_us,
                r.boundary_share(),
                r.steady_ns_per_update,
                r.boundary_ns_per_update,
                r.ratio()
            ));
        }
        out
    }

    /// Render as a JSON object (`{"id", "geometry", "rows"}`), one entry
    /// of the `repro --json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"kind\":\"{}\",\"engine\":\"{}\",\"tile_us\":{},\"boundary_us\":{},\
                     \"boundary_share\":{},\"steady_ns_per_update\":{},\
                     \"boundary_ns_per_update\":{},\"boundary_over_steady\":{}}}",
                    r.kind,
                    r.engine,
                    json_num(r.tile_us),
                    json_num(r.boundary_us),
                    json_num(r.boundary_share()),
                    json_num(r.steady_ns_per_update),
                    json_num(r.boundary_ns_per_update),
                    json_num(r.ratio())
                )
            })
            .collect();
        let (n2, n3) = self.geometry;
        format!(
            "{{\"id\":\"ablate-boundary\",\"geometry\":[{n2},{n3}],\"rows\":[{}]}}",
            rows.join(",")
        )
    }

    /// The `std::arch` (AVX2 and AVX-512) rows whose boundary/steady ratio
    /// exceeds `limit` — the silent failure this target exists to catch: a
    /// boundary phase that is no longer inlined into its
    /// `#[target_feature]` sandwich runs its `mul_add`s through libm again
    /// and the ratio jumps to ≈ 20.
    pub fn avx2_rows_over(&self, limit: f64) -> Vec<&BoundaryRow> {
        self.rows
            .iter()
            // A non-finite ratio (noise drove the fitted slope to ≤ 0) is
            // not evidence of a regression.
            .filter(|r| r.engine != "portable" && r.ratio().is_finite() && r.ratio() > limit)
            .collect()
    }
}

/// Where the time goes in a tile (ROADMAP aim 1: "bare steady state vs
/// whole tile"). Per 2-D/3-D grid kind and engine, time an untiled run
/// (`engine_runs`) at the `ledger` benchmark's geometry (`scale` = 16;
/// `scale` ≥ 64 gives its `--smoke` geometry) and at 10× the outer extent, minimum of 20
/// runs each. A tile's time is linear in its steady-state slab count
/// `x_max = nx + 1 - VL·s`, so the two points give the steady cost per
/// slab (the slope) and the fixed boundary cost per tile (the intercept
/// at `x_max = 0`); dividing by the point-updates each part performs
/// (`VL·inner` per slab; `VL·inner·(VL·s - 1)` in the boundary) states
/// both per update. A share within ± 0.03 of zero is below what two
/// timings resolve. Rows are produced for the AVX2 and AVX-512 engines
/// (where the CPU has them; AVX-512 for the kinds with an eight-lane
/// sweep) and the portable one. The 1-D kinds are left out:
/// their boundary is 27 points per level of a 65536-point tile, which
/// this method cannot see.
pub fn ablate_boundary(scale: usize) -> BoundaryTable {
    let d = scale.max(1);
    let (n2, n3) = ((4096 / d).max(64), (640 / d).max(16));
    let mut rows = vec![];
    for engine in forced_engines() {
        for k in kinds_on(engine) {
            let dims = if k.three_d { [n3; 3] } else { [n2, n2, 1] };
            let vl = k.lanes(engine);
            let ([t1, _], [per_slab, _]) = tile_and_slab(k, dims, engine);
            let x_max = (dims[0] + 1 - vl * SLAB_STRIDE) as f64;
            let boundary = t1 - per_slab * x_max;
            let updates_per_slab = (vl * k.inner(dims)) as f64;
            rows.push(BoundaryRow {
                kind: k.name,
                engine: engine.name(),
                tile_us: t1 * 1e6,
                boundary_us: boundary * 1e6,
                steady_ns_per_update: per_slab * 1e9 / updates_per_slab,
                boundary_ns_per_update: boundary * 1e9
                    / (updates_per_slab * (vl * SLAB_STRIDE - 1) as f64),
            });
        }
    }
    BoundaryTable {
        geometry: (n2, n3),
        rows,
    }
}

/// One slab kind under one engine selection at one geometry of
/// [`ablate_rows`]: the steady-state cost of a point-update in ns, and of
/// an output vector (`vl` point-updates) in core cycles.
#[derive(Clone, Copy, Debug)]
pub struct SteadyCost {
    /// ns per point-update (from the fastest runs).
    pub ns_per_update: f64,
    /// Core cycles per output vector (from the runs of fewest cycles, each
    /// converted by a clock sample taken next to it).
    pub cycles_per_vector: f64,
}

/// One row of [`ablate_rows`]: one slab kind on one engine.
#[derive(Clone, Debug)]
pub struct SteadyRowsRow {
    /// Workload kind (`heat2d` … `gs3d`).
    pub kind: &'static str,
    /// Engine the row ran (`avx2` | `avx512` | `portable`).
    pub engine: &'static str,
    /// With the wavefront ring in L1.
    pub l1: SteadyCost,
    /// At the `ledger` benchmark's geometry.
    pub ledger: SteadyCost,
    /// The engine's steady loop: the AVX2 one, or the eight-lane one on
    /// AVX-512 (the portable rows are LLVM's choice and have no written
    /// model: their ratio is against the AVX2 bound).
    pub model: RowModel,
    /// What to measure again: the kind and the engine.
    source: (&'static SlabKind, Engine),
}

impl SteadyRowsRow {
    /// L1-resident cycles per vector over the model's.
    pub fn l1_vs_model(&self) -> f64 {
        self.l1.cycles_per_vector / self.model.cycles_per_vector()
    }

    /// An AVX2 Jacobi row whose L1-resident cycles per vector exceed
    /// `limit` × its model: a steady loop that grew back its bounds checks
    /// or spills, or dropped out of its sandwich.
    pub fn over(&self, limit: f64) -> bool {
        self.engine == "avx2" && self.model.chain == 0 && self.l1_vs_model() > limit
    }
}

/// One row of [`ablate_rows`]' column sweep: Heat-2D's steady cost on one
/// `std::arch` engine at one row width, against the same engine's reading
/// with the ring in L1.
#[derive(Clone, Debug)]
pub struct WidthRow {
    /// Engine the row ran (`avx2` | `avx512`).
    pub engine: &'static str,
    /// Interior columns of a row.
    pub columns: usize,
    /// Lanes of the engine's sweep.
    pub vl: usize,
    /// The steady cost at this width.
    pub cost: SteadyCost,
    /// The engine whose reading this is.
    source: Engine,
}

impl WidthRow {
    /// Bytes of a ring of whole rows at this width: `s + 2` rows of
    /// `columns + 2` packs — what the steady state would keep in flight
    /// without segments.
    pub fn ring_kb(&self) -> f64 {
        ((SLAB_STRIDE + 2) * (self.columns + 2) * self.vl * 8) as f64 / 1024.0
    }
}

/// The `ablate-rows` table: per slab kind and engine, the steady state
/// against its port bound; and Heat-2D's steady state over row widths.
#[derive(Clone, Debug)]
pub struct SteadyRowsTable {
    /// Interior extents of the L1-resident geometry, 2-D and 3-D.
    pub l1_dims: [[usize; 3]; 2],
    /// Interior extents of the ledger geometry, 2-D and 3-D.
    pub ledger_dims: [[usize; 3]; 2],
    /// One row per kind and engine.
    pub rows: Vec<SteadyRowsRow>,
    /// Heat-2D over row widths, per `std::arch` engine.
    pub widths: Vec<WidthRow>,
}

impl SteadyRowsTable {
    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let dims = |d: [usize; 3]| format!("{}x{}x{}", d[0], d[1], d[2]);
        let mut out = format!(
            "# ablate-rows — slab steady rows against their port bound (ring in L1: {} / {}; \
             ledger: {} / {}; c/v = core cycles per output vector, clock sampled around each \
             run; model = max(FMA-port µops/2, loads/2, µops/6), Gauss-Seidel: 4 x chained \
             FMAs)\n\
             {:<8}{:>10}{:>10}{:>8}{:>12}{:>8}{:>7}{:>6}{:>6}{:>7}{:>7}{:>8}{:>8}{:>9}\n",
            dims(self.l1_dims[0]),
            dims(self.l1_dims[1]),
            dims(self.ledger_dims[0]),
            dims(self.ledger_dims[1]),
            "kind",
            "engine",
            "L1 ns/u",
            "L1 c/v",
            "ledger ns/u",
            "c/v",
            "insns",
            "µops",
            "fma",
            "loads",
            "chain",
            "model",
            "L1/mod",
            "ldgr/mod"
        );
        for r in &self.rows {
            let m = r.model;
            // The counts are the `std::arch` loop's.
            let count = |n: u32| match r.engine {
                "portable" => "-".into(),
                _ => n.to_string(),
            };
            out.push_str(&format!(
                "{:<8}{:>10}{:>10.3}{:>8.2}{:>12.3}{:>8.2}{:>7}{:>6}{:>6}{:>7}{:>7}{:>8.2}{:>8.2}{:>9.2}\n",
                r.kind,
                r.engine,
                r.l1.ns_per_update,
                r.l1.cycles_per_vector,
                r.ledger.ns_per_update,
                r.ledger.cycles_per_vector,
                count(m.insns),
                count(m.uops),
                count(m.fma_port),
                count(m.loads),
                count(m.chain),
                m.cycles_per_vector(),
                r.l1_vs_model(),
                r.ledger.cycles_per_vector / m.cycles_per_vector()
            ));
        }
        if !self.widths.is_empty() {
            out.push_str(&format!(
                "# heat2d over row widths ({WIDTH_ROWS} rows; ring = s + 2 whole rows of packs, \
                 kept in L1 by segments; / L1 = cycles per vector over the engine's L1 reading)\n\
                 {:<10}{:>8}{:>10}{:>10}{:>8}{:>7}\n",
                "engine", "columns", "ring KB", "ns/u", "c/v", "/ L1"
            ));
        }
        for w in &self.widths {
            out.push_str(&format!(
                "{:<10}{:>8}{:>10.0}{:>10.3}{:>8.2}{:>7.2}\n",
                w.engine,
                w.columns,
                w.ring_kb(),
                w.cost.ns_per_update,
                w.cost.cycles_per_vector,
                self.vs_l1(w)
            ));
        }
        out
    }

    /// Render as a JSON object (`{"id", "rows", "widths"}`), one entry of
    /// the `repro --json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"kind\":\"{}\",\"engine\":\"{}\",\"l1_ns_per_update\":{},\
                     \"l1_cycles_per_vector\":{},\"ledger_ns_per_update\":{},\
                     \"ledger_cycles_per_vector\":{},\"model_cycles_per_vector\":{},\
                     \"l1_vs_model\":{}}}",
                    r.kind,
                    r.engine,
                    json_num(r.l1.ns_per_update),
                    json_num(r.l1.cycles_per_vector),
                    json_num(r.ledger.ns_per_update),
                    json_num(r.ledger.cycles_per_vector),
                    json_num(r.model.cycles_per_vector()),
                    json_num(r.l1_vs_model())
                )
            })
            .collect();
        let widths: Vec<String> = self
            .widths
            .iter()
            .map(|w| {
                format!(
                    "{{\"engine\":\"{}\",\"columns\":{},\"ring_kb\":{},\"ns_per_update\":{},\
                     \"cycles_per_vector\":{},\"vs_l1\":{}}}",
                    w.engine,
                    w.columns,
                    json_num(w.ring_kb()),
                    json_num(w.cost.ns_per_update),
                    json_num(w.cost.cycles_per_vector),
                    json_num(self.vs_l1(w))
                )
            })
            .collect();
        format!(
            "{{\"id\":\"ablate-rows\",\"rows\":[{}],\"widths\":[{}]}}",
            rows.join(","),
            widths.join(",")
        )
    }

    /// The rows [`SteadyRowsRow::over`] their kind's limit.
    pub fn avx2_jacobi_rows_over(&self, limit: impl Fn(&str) -> f64) -> Vec<&SteadyRowsRow> {
        let over = |r: &&SteadyRowsRow| r.over(limit(r.kind));
        self.rows.iter().filter(over).collect()
    }

    /// A width row's cycles per vector over its engine's Heat-2D reading
    /// with the ring in L1.
    pub fn vs_l1(&self, w: &WidthRow) -> f64 {
        let l1 = self
            .rows
            .iter()
            .find(|r| r.kind == "heat2d" && r.engine == w.engine)
            .map_or(f64::NAN, |r| r.l1.cycles_per_vector);
        w.cost.cycles_per_vector / l1
    }

    /// The width rows that read more than `limit` × their L1 reading: a
    /// ring that left L1 again.
    pub fn widths_over(&self, limit: f64) -> Vec<&WidthRow> {
        let over = |ratio: f64| ratio.is_nan() || ratio > limit; // NaN: unmeasured
        self.widths.iter().filter(|w| over(self.vs_l1(w))).collect()
    }

    /// Measure the rows `again` picks (once more), and the width rows over
    /// `width_limit` with their engine's L1 reading, keeping the lower
    /// reading of each cost: a busy sibling hyperthread halves the
    /// throughput of a port-bound loop for a fraction of a second at a
    /// time, and the twenty runs behind a reading span less than that.
    pub fn remeasure(&mut self, again: impl Fn(&SteadyRowsRow) -> bool, width_limit: f64) {
        let wide: Vec<Engine> = self
            .widths_over(width_limit)
            .iter()
            .map(|w| w.source)
            .collect();
        let heat2d = &SLAB_KINDS[0];
        let l1_again =
            |r: &SteadyRowsRow| r.source.0.name == heat2d.name && wide.contains(&r.source.1);
        for r in self.rows.iter_mut().filter(|r| again(r) || l1_again(r)) {
            let (kind, engine) = r.source;
            for (cost, dims) in [(&mut r.l1, self.l1_dims), (&mut r.ledger, self.ledger_dims)] {
                measure(cost, kind, dims[kind.three_d as usize], engine);
            }
        }
        let nx = WIDTH_ROWS;
        for w in self.widths.iter_mut().filter(|w| wide.contains(&w.source)) {
            measure(&mut w.cost, heat2d, [nx, w.columns, 1], w.source);
        }
    }
}

/// Lower `cost` to `kind`'s steady cost at `dims` on `engine` where that
/// reads lower.
fn measure(cost: &mut SteadyCost, kind: &SlabKind, dims: [usize; 3], engine: Engine) {
    let vl = kind.lanes(engine);
    let (_, [secs, cycles]) = tile_and_slab(kind, dims, engine);
    let updates = (vl * kind.inner(dims)) as f64;
    cost.ns_per_update = cost.ns_per_update.min(secs * 1e9 / updates);
    cost.cycles_per_vector = cost.cycles_per_vector.min(cycles / updates * vl as f64);
}

/// ROADMAP item 2(d): the slab steady state against a ceiling. Per slab
/// kind and engine — AVX2, AVX-512 for the kinds with an eight-lane sweep,
/// portable — the steady cost of a point-update (the slope of
/// [`ablate_boundary`]'s fit) at a geometry whose wavefront ring — `s + 2`
/// slabs of packs, plus two for Gauss-Seidel — sits in L1, and at the
/// `ledger` benchmark's geometry, next to the kind's [`RowModel`]. Then
/// Heat-2D on each `std::arch` engine over rows of 128 … 1024 columns,
/// whose whole-row rings reach 20 times L1 and which the steady state
/// keeps in L1 by segments. The geometry is the same at any `--scale`.
pub fn ablate_rows() -> SteadyRowsTable {
    let unmeasured = SteadyCost {
        ns_per_update: f64::INFINITY,
        cycles_per_vector: f64::INFINITY,
    };
    let rows = forced_engines().into_iter().flat_map(|engine| {
        kinds_on(engine).map(move |kind| SteadyRowsRow {
            kind: kind.name,
            engine: engine.name(),
            l1: unmeasured,
            ledger: unmeasured,
            model: kind.model(engine),
            source: (kind, engine),
        })
    });
    let widths = forced_engines()
        .into_iter()
        .filter(|&e| e != Engine::Portable)
        .flat_map(|engine| {
            [128, 192, 256, 320, 384, 512, 768, 1024].map(|columns| WidthRow {
                engine: engine.name(),
                columns,
                vl: SLAB_KINDS[0].lanes(engine),
                cost: unmeasured,
                source: engine,
            })
        });
    let mut table = SteadyRowsTable {
        // Rows as wide as the ledger's 3-D rows; 2-D slabs of 130 packs
        // (ring 17 KB, 33 KB at eight lanes), 3-D slabs of 6 x 42 (ring 32
        // KB, 48 KB with the Gauss-Seidel output slabs).
        l1_dims: [[64, 128, 1], [16, 4, 40]],
        ledger_dims: [[256, 256, 1], [40, 40, 40]],
        rows: rows.collect(),
        widths: widths.collect(),
    };
    table.remeasure(|_| true, 0.0);
    table
}

/// One row of [`ablate_tiling`]: one Table-1 grid benchmark at its
/// parallel geometry, or LCS at one width at the ledger's.
#[derive(Clone, Debug)]
pub struct TilingRow {
    /// Benchmark name, as Table 1 prints it.
    pub kind: &'static str,
    /// Engine the tiled plan resolved to (`avx512` | `avx2` | `portable`).
    pub engine: &'static str,
    /// Anchors per chunk (`TileGeometry::block`: the effective value;
    /// LCS: the DP rows of a band).
    pub block: usize,
    /// Chunks per sweep (`TileGeometry::tiles`; LCS: the wave's tasks,
    /// bands × block columns).
    pub chunks: usize,
    /// Sweeps per run: `steps / vl` temporal plus `steps % vl` scalar.
    pub sweeps: usize,
    /// Untiled plan — the one-chunk schedule of the executor the tiled
    /// plans run — µs (best of 20 runs, like the others).
    pub untiled_us: f64,
    /// Tiled plan, one thread, µs.
    pub tiled_1t_us: f64,
    /// Tiled plan, two threads, µs; `None` on a one-core host.
    pub tiled_2t_us: Option<f64>,
}

impl TilingRow {
    /// What tiling costs at one thread: tiled / untiled time.
    pub fn overhead(&self) -> f64 {
        self.tiled_1t_us / self.untiled_us
    }

    /// What the second thread gains: tiled 1-thread / 2-thread time.
    pub fn speedup_2t(&self) -> Option<f64> {
        self.tiled_2t_us.map(|t2| self.tiled_1t_us / t2)
    }
}

/// The `ablate-tiling` table: per grid benchmark, the default plan
/// untiled (each sweep one chunk), tiled on one thread and tiled on two.
#[derive(Clone, Debug)]
pub struct TilingTable {
    /// The `--scale` divisor of the geometry.
    pub scale: usize,
    /// One row per Ghost/Skew row of Table 1.
    pub rows: Vec<TilingRow>,
}

impl TilingTable {
    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# ablate-tiling — what tiling costs and what a second thread gains \
             (Table-1 parallel geometry, scale 1/{}; LCS: the ledger's 8192^2 / 1024^2 \
             at each width; untiled = the same executor's one-chunk schedule)\n\
             {:<10}{:>10}{:>8}{:>8}{:>8}{:>13}{:>13}{:>13}{:>10}{:>9}\n",
            self.scale,
            "benchmark",
            "engine",
            "block",
            "chunks",
            "sweeps",
            "untiled µs",
            "tiled-1t µs",
            "tiled-2t µs",
            "1t/untld",
            "1t/2t"
        );
        for r in &self.rows {
            let (t2, gain) = match (r.tiled_2t_us, r.speedup_2t()) {
                (Some(t2), Some(gain)) => (format!("{t2:.1}"), format!("{gain:.2}")),
                _ => ("-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{:<10}{:>10}{:>8}{:>8}{:>8}{:>13.1}{:>13.1}{:>13}{:>10.2}{:>9}\n",
                r.kind,
                r.engine,
                r.block,
                r.chunks,
                r.sweeps,
                r.untiled_us,
                r.tiled_1t_us,
                t2,
                r.overhead(),
                gain
            ));
        }
        out
    }

    /// Render as a JSON object (`{"id", "scale", "rows"}`), one entry of
    /// the `repro --json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"kind\":\"{}\",\"engine\":\"{}\",\"block\":{},\"chunks\":{},\
                     \"sweeps\":{},\"untiled_us\":{},\"tiled_1t_us\":{},\"tiled_2t_us\":{}}}",
                    r.kind,
                    r.engine,
                    r.block,
                    r.chunks,
                    r.sweeps,
                    json_num(r.untiled_us),
                    json_num(r.tiled_1t_us),
                    r.tiled_2t_us.map_or("null".into(), json_num)
                )
            })
            .collect();
        format!(
            "{{\"id\":\"ablate-tiling\",\"scale\":{},\"rows\":[{}]}}",
            self.scale,
            rows.join(",")
        )
    }

    /// The `std::arch` (AVX2 and AVX-512) rows whose one-thread tiled run
    /// takes more than `limit` times the untiled one: chunking a sweep
    /// should cost the wavefront's bookkeeping and nothing else.
    pub fn avx2_rows_over(&self, limit: f64) -> Vec<&TilingRow> {
        self.rows
            .iter()
            .filter(|r| r.engine != "portable" && r.overhead() > limit)
            .collect()
    }
}

/// ROADMAP item "time tiling that pays for itself": for every Ghost/Skew
/// row of Table 1 at its parallel geometry (divided by `scale`), the
/// default "our" plan untiled on one thread, tiled on one thread and —
/// when `cores ≥ 2` — tiled on two, minimum of 20 runs each, alternating
/// on one state. LCS likewise at the ledger's `tiled-2t` geometry (8192²
/// in blocks of 1024², at any `scale`) at each width (`lcs_widths`:
/// `Select::Avx2` for eight lanes, `auto` for sixteen) — the rows that
/// say whether the band sweeps, resumed across block columns, lose
/// anything to the tiling at either width.
pub fn ablate_tiling(scale: usize, cores: usize) -> TilingTable {
    let sel = Select::from_env();
    let mut rows = vec![];
    // `vl`: the lanes of the kind's AVX2 sweep; an AVX-512 plan (the 1-D
    // and `f64` 2-D kinds, LCS) sweeps twice as many.
    let mut row_of = |kind, problem: Problem, our: PlanBuilder, tiling, vl: usize| {
        let tiled = |threads| our.tiling(tiling).threads(threads);
        let mut builders = vec![our, tiled(1)];
        if cores >= 2 {
            builders.push(tiled(2));
        }
        let runs = best_of_20_each(&problem, &builders);
        // Panic-justification: a plan built with a tiling reports its
        // geometry; anything else is a bench-suite bug.
        let tiles = runs[1].tiles.expect("tiled plans report their geometry");
        let vl = if runs[1].engine == "avx512" {
            2 * vl
        } else {
            vl
        };
        let steps = problem.steps();
        rows.push(TilingRow {
            kind,
            engine: runs[1].engine,
            block: tiles.block,
            chunks: tiles.tiles,
            sweeps: steps / vl + steps % vl,
            untiled_us: runs[0].secs * 1e6,
            tiled_1t_us: runs[1].secs * 1e6,
            tiled_2t_us: runs.get(2).map(|r| r.secs * 1e6),
        });
    };
    for row in &BENCHMARKS {
        let vl = match row.family {
            Family::Ghost { vl, .. } => vl,
            Family::Skew { .. } => 4,
            Family::Rect { .. } => continue,
        };
        let cfg = row.parallel_config(scale);
        let problem = (row.problem)(cfg.n, cfg.steps);
        row_of(
            row.name,
            problem,
            PlanBuilder::new().select(sel),
            cfg.tiling,
            vl,
        );
    }
    let lcs = Problem::lcs(8192, 8192);
    for engine in lcs_widths(sel) {
        let sel = match engine {
            Engine::Avx512 => Select::Auto,
            Engine::Avx2 => Select::Avx2,
            Engine::Portable => Select::Portable,
        };
        let rect = Tiling::LcsRect {
            xblock: 1024,
            yblock: 1024,
        };
        row_of("LCS", lcs, PlanBuilder::new().select(sel), rect, 8);
    }
    TilingTable { scale, rows }
}

/// One row of [`ablate_digest`]: one `State` variant at the served size.
#[derive(Clone, Debug)]
pub struct DigestRow {
    /// `State` variant name.
    pub variant: &'static str,
    /// Payload size in bytes (eight per digested word).
    pub bytes: usize,
    /// `tempora_proto::state_digest`, MiB/s (best of 20, like the others).
    pub digest_mib_per_s: f64,
    /// The same definition folded one lane after the other — a single
    /// dependence chain — MiB/s.
    pub spec_mib_per_s: f64,
    /// A wrapping `u64` sum of the same words — what reading them
    /// costs — MiB/s.
    pub sum_mib_per_s: f64,
}

impl DigestRow {
    /// How many times the single chain's speed the digest runs at.
    pub fn vs_spec(&self) -> f64 {
        self.digest_mib_per_s / self.spec_mib_per_s
    }
}

/// The `ablate-digest` table: per `State` variant, the digest against
/// its one-chain definition and against a plain sum.
#[derive(Clone, Debug)]
pub struct DigestTable {
    /// `tempora_proto::digest::LANES`.
    pub lanes: usize,
    /// One row per `State` variant; the served 4096-point `Grid1` first.
    pub rows: Vec<DigestRow>,
}

impl DigestTable {
    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "# ablate-digest — state_digest ({} lanes) vs its one-chain spec vs a word sum \
             (served reference sizes, MiB/s)\n\
             {:<8}{:>9}{:>10}{:>10}{:>10}{:>10}\n",
            self.lanes, "state", "bytes", "digest", "spec", "sum", "vs spec"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8}{:>9}{:>10.0}{:>10.0}{:>10.0}{:>10.2}\n",
                r.variant,
                r.bytes,
                r.digest_mib_per_s,
                r.spec_mib_per_s,
                r.sum_mib_per_s,
                r.vs_spec()
            ));
        }
        out
    }

    /// Render as a JSON object (`{"id", "lanes", "rows"}`), one entry of
    /// the `repro --json` document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"state\":\"{}\",\"bytes\":{},\"digest_mib_per_s\":{},\
                     \"spec_mib_per_s\":{},\"sum_mib_per_s\":{},\"vs_spec\":{}}}",
                    r.variant,
                    r.bytes,
                    json_num(r.digest_mib_per_s),
                    json_num(r.spec_mib_per_s),
                    json_num(r.sum_mib_per_s),
                    json_num(r.vs_spec())
                )
            })
            .collect();
        format!(
            "{{\"id\":\"ablate-digest\",\"lanes\":{},\"rows\":[{}]}}",
            self.lanes,
            rows.join(",")
        )
    }
}

/// What the digest of a served reply costs (ROADMAP item 4(a)). The hash
/// is a loop-carried recurrence; `state_digest` deals the words across
/// `LANES` independent chains, and when a change makes the compiler
/// serialise them every digest stays equal, every test passes, and the
/// digest of a cache hit costs 7 µs instead of 2. Per `State` variant at the served
/// size (32 KiB of payload; the ledger's 4096-point Heat-1D first),
/// minimum of 20 timings of 32 calls each: the digest, its definition
/// one lane at a time, and a wrapping sum of the same words.
pub fn ablate_digest() -> DigestTable {
    use tempora_proto::digest::{DigestInput, LANES};
    let problems = [
        Problem::heat1d(4096, 32, Heat1dCoeffs::classic(0.25)),
        Problem::heat2d(64, 64, 32, Heat2dCoeffs::classic(0.125)),
        Problem::life(64, 128, 32, LifeRule::b2s23()),
        Problem::heat3d(16, 16, 16, 32, Heat3dCoeffs::classic(0.1)),
        Problem::lcs(16384, 16384),
    ];
    let mib_per_s = |bytes: usize, f: &mut dyn FnMut() -> u64| {
        let best = (0..20)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..32 {
                    std::hint::black_box(f());
                }
                t.elapsed().as_secs_f64() / 32.0
            })
            .fold(f64::INFINITY, f64::min);
        bytes as f64 / best / (1u64 << 20) as f64
    };
    let rows = problems
        .iter()
        .map(|problem| {
            let state = tempora_server::fresh_state(problem, SEED);
            let input = DigestInput::of(&state);
            let bytes = 8 * input.parts.iter().map(Vec::len).sum::<usize>();
            DigestRow {
                variant: state.variant_name(),
                bytes,
                digest_mib_per_s: mib_per_s(bytes, &mut || {
                    tempora_proto::state_digest(std::hint::black_box(&state))
                }),
                spec_mib_per_s: mib_per_s(bytes, &mut || std::hint::black_box(&input).digest()),
                sum_mib_per_s: mib_per_s(bytes, &mut || {
                    let parts = &std::hint::black_box(&input).parts;
                    parts.iter().flatten().fold(0, |s, &w| s.wrapping_add(w))
                }),
            }
        })
        .collect();
    DigestTable { lanes: LANES, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_models_state_the_written_bounds() {
        // README, "The slab steady state": cycles per output vector.
        let bound = |kind: &str| {
            let k = SLAB_KINDS.iter().find(|k| k.name == kind).unwrap();
            (k.model.cycles_per_vector() * 100.0).round() / 100.0
        };
        assert_eq!(bound("heat2d"), 2.67); // 16 µops / 6
        assert_eq!(bound("box2d"), 4.5); // 9 FMA-port µops / 2
        assert_eq!(bound("life"), 4.0); // 8 loads / 2, 24 µops / 6
        assert_eq!(bound("heat3d"), 3.5); // 7 FMA-port µops / 2
        assert_eq!(bound("gs2d"), 8.0); // 2 chained FMAs
        assert_eq!(bound("gs3d"), 12.0); // 3 chained FMAs
    }

    #[test]
    fn steps_selection() {
        assert_eq!(choose_steps(1 << 20, 1e7, 8, 4096) % 4, 0);
        assert!(choose_steps(10, 1e7, 8, 4096) <= 4096);
        assert!(choose_steps(usize::MAX / 2, 1e7, 8, 4096) >= 8);
    }

    #[test]
    fn steps_never_exceed_hi() {
        // Regression: rounding up to a multiple of 4 *after* clamping used
        // to push the result past `hi` (e.g. hi = 5 -> 8).
        assert_eq!(choose_steps(1, 1e9, 4, 5), 5);
        assert_eq!(choose_steps(1, 1e9, 4, 2000), 2000);
        for hi in [4usize, 5, 512, 2000, 65536] {
            assert!(choose_steps(1, 1e12, 4, hi) <= hi, "hi={hi}");
        }
        // Small raw counts still land on a tile multiple within range.
        assert_eq!(choose_steps(1 << 20, 6e7, 4, 65536), 60);
    }

    #[test]
    fn figure_rendering() {
        let smp = |engine| Sample {
            secs: 1.0,
            engine,
            stride: 7,
        };
        let mut a = Series::new("a");
        a.push(1.0, 2.0, 1, &smp(None));
        a.push(2.0, 3.0, 2, &smp(None));
        let mut our = Series::new("our");
        our.push(1.0, 4.0, 1, &smp(Some("avx2")));
        our.push(2.0, 5.0, 2, &smp(Some("avx2")));
        let f = Figure {
            id: "t".into(),
            title: "T".into(),
            xlabel: "x".into(),
            series: vec![a, our],
        };
        let table = f.to_table();
        assert!(table.contains("# t — T"));
        assert!(table.contains("our:avx2"), "{table}");
        let csv = f.to_csv();
        assert!(csv.starts_with("x,a,our\n"));
        assert!(csv.contains("1,2,4\n"));
        let json = f.to_json();
        assert!(json.contains("\"engine\":\"avx2\""), "{json}");
        assert!(!json.contains("\"label\":\"a\",\"engine\""), "{json}");
        // Per-point provenance lands in the JSON baselines.
        assert!(json.contains("\"cores\":[1,2]"), "{json}");
        assert!(json.contains("\"engines\":[\"avx2\",\"avx2\"]"), "{json}");
        assert!(json.contains("\"engines\":[null,null]"), "{json}");
        // So does the resolved stride, for dispatched points only.
        assert!(json.contains("\"strides\":[7,7]"), "{json}");
        assert!(json.contains("\"strides\":[null,null]"), "{json}");
    }

    #[test]
    fn mixed_engine_sweeps_are_reported_honestly() {
        // Regression for the first-point-only engine recording: a sweep
        // whose plans resolve different engines at different points must
        // say "mixed", not whatever the first point happened to resolve.
        let smp = |engine| Sample {
            secs: 1.0,
            engine,
            stride: 7,
        };
        let mut s = Series::new("our");
        s.push(1.0, 1.0, 1, &smp(Some("avx2")));
        s.push(2.0, 1.0, 1, &smp(Some("portable")));
        assert_eq!(s.engine_summary().as_deref(), Some("mixed"));
        assert_eq!(s.column_label(), "our:mixed");
        // Uniform sweeps keep the plain engine name; undispatched points
        // (None) don't poison the summary.
        let mut u = Series::new("our");
        u.push(1.0, 1.0, 1, &smp(None));
        u.push(2.0, 1.0, 1, &smp(Some("portable")));
        assert_eq!(u.engine_summary().as_deref(), Some("portable"));
        assert_eq!(Series::new("scalar").engine_summary(), None);
    }

    #[test]
    fn time_median_is_robust_to_one_outlier() {
        // The first (cold) call is the slowest by construction; the median
        // of the post-warm-up runs must not report it.
        let mut calls = 0u32;
        let t = time_median(
            || {
                calls += 1;
                if calls == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            },
            3,
        );
        assert_eq!(calls, 4); // 1 warm-up + 3 timed
        assert!(t < 0.015, "median contaminated by warm-up outlier: {t}");
    }

    #[test]
    fn reorg_ablation_confirms_paper_budget() {
        let r = ablate_reorg();
        assert!(r.contains("temporal (ours)"));
        // The temporal line must report exactly 1 in-lane + 1 cross-lane
        // per output vector.
        let line = r.lines().find(|l| l.starts_with("temporal")).unwrap();
        assert!(line.contains("1.000"), "{line}");
    }

    #[test]
    fn plan_sample_reports_engine_for_temporal_only() {
        let c = Heat1dCoeffs::classic(0.25);
        let problem = Problem::heat1d(512, 8, c);
        let our = plan_sample(&problem, PlanBuilder::new().stride(7));
        assert!(our.engine.is_some());
        let scalar = plan_sample(&problem, PlanBuilder::new().method(Method::Scalar));
        assert!(scalar.engine.is_none());
    }

    #[test]
    fn lcs_series_report_resolved_engine() {
        // fig5g/fig5h regression: the LCS temporal series must carry the
        // resolved engine like every other dispatched series — avx2 on
        // AVX2 hosts now that the integer steady state exists.
        let expect = if tempora_simd::arch::avx2_available() {
            Some("avx2")
        } else {
            Some("portable")
        };
        let problem = Problem::lcs(128, 128);
        let seq = plan_sample(&problem, PlanBuilder::new().stride(1));
        assert_eq!(seq.engine, expect);
        let par = plan_sample(
            &problem,
            PlanBuilder::new()
                .stride(1)
                .tiling(Tiling::LcsRect {
                    xblock: 32,
                    yblock: 32,
                })
                .threads(2),
        );
        assert_eq!(par.engine, expect);
        // Forced portable stays portable.
        let forced = plan_sample(
            &problem,
            PlanBuilder::new().stride(1).select(Select::Portable),
        );
        assert_eq!(forced.engine, Some("portable"));
    }

    #[test]
    fn parallel_configs_scale_down() {
        for row in &BENCHMARKS {
            let (p1, p16) = (row.parallel_config(1), row.parallel_config(16));
            assert!(p16.n < p1.n, "{}", row.name);
            assert!(p16.n >= row.geometry.size.1, "{}", row.name);
            // Whatever the scale, the floors keep the row runnable.
            let floor = row.parallel_config(usize::MAX);
            assert_eq!(floor.n, row.geometry.size.1, "{}", row.name);
        }
    }

    /// Build `builder` against `problem`; a `PlanError` fails the test
    /// with the configuration that caused it.
    fn build(what: &str, problem: &Problem, builder: PlanBuilder) -> tempora_plan::Plan {
        builder
            .build(problem)
            .unwrap_or_else(|e| panic!("{what}: {builder:?} on {problem:?}: {e}"))
    }

    #[test]
    fn every_benchmark_row_builds_its_plans() {
        // The CI smoke geometry. Plans are built only; nothing is timed.
        let scale = 512;
        for row in &BENCHMARKS {
            let g = row.geometry;
            for n in g.sizes(scale) {
                let problem = (row.problem)(n, g.sweep_steps(n));
                for (label, builder) in row.builders(Tiling::None) {
                    build(&format!("{} {label}", row.seq_id), &problem, builder);
                }
            }
            let cfg = row.parallel_config(scale);
            let problem = (row.problem)(cfg.n, cfg.steps);
            for (label, builder) in row.builders(cfg.tiling) {
                for cores in [1, 2] {
                    let what = format!("{} {label} at {cores}", row.par_id);
                    build(&what, &problem, builder.threads(cores).pin(true));
                }
            }
        }
        // The table reproduces the paper's figure numbering.
        let mut ids: Vec<&str> = BENCHMARKS
            .iter()
            .flat_map(|b| [b.seq_id, b.par_id])
            .collect();
        ids.sort_unstable();
        let expect: Vec<String> = ("abcdefghij".chars().map(|c| format!("fig4{c}")))
            .chain("abcdefgh".chars().map(|c| format!("fig5{c}")))
            .collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn figures_run_the_default_stride() {
        // A figure's "our" series publishes what a user's default plan
        // delivers: the stride it records is `Plan::stride()` of a plan
        // built with nothing but the tiling set (and `TEMPORA_ENGINE`'s
        // selection: the 1-D defaults are per engine).
        let recorded = |problem: &Problem, (label, builder): (&'static str, PlanBuilder)| {
            assert_eq!(label, "our");
            let mut series = Series::new(label);
            series.push(0.0, 0.0, 1, &plan_sample(problem, builder));
            series.strides[0]
        };
        let user = PlanBuilder::new().select(Select::from_env());
        for row in &BENCHMARKS {
            let cfg = row.parallel_config(512);
            let problem = (row.problem)(cfg.n, cfg.steps);
            for tiling in [Tiling::None, cfg.tiling] {
                let default = build(row.name, &problem, user.tiling(tiling)).stride();
                let our = row.builders(tiling)[0];
                assert_eq!(
                    recorded(&problem, our),
                    Some(default),
                    "{} {tiling:?}",
                    row.name
                );
            }
        }
        let problem = (BENCHMARKS[0].problem)(4096, 8);
        let default = build("ablate-baselines", &problem, user).stride();
        assert_eq!(recorded(&problem, baseline_schemes()[0]), Some(default));
    }

    #[test]
    fn core_count_ladder() {
        assert_eq!(core_counts(1), vec![1]);
        assert_eq!(core_counts(2), vec![1, 2]);
        assert_eq!(core_counts(4), vec![1, 2, 3, 4]);
        let c24 = core_counts(24);
        assert!(c24.starts_with(&[1, 2, 3, 4, 8, 12]));
    }
}
