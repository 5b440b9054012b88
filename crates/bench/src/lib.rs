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
//! | `ablate-baselines` | §2.2 baseline comparison | [`ablate_baselines`] |
//! | `ablate-stride` | §3.3 stride/ILP sweep, the three 1-D and the six slab kinds, default marked | [`ablate_stride`] |
//! | `ablate-boundary` | bare steady state vs whole tile, per kind and engine | [`ablate_boundary`] |
//! | `ablate-tiling` | untiled vs tiled on one and two threads, per Table-1 grid row | [`ablate_tiling`] |
//! | `ablate-digest` | `state_digest` vs its one-chain spec vs a word sum, per `State` variant | [`ablate_digest`] |
//! | `ablate-rows` | slab steady rows in cycles per vector against their port bound, ring in L1 and at the ledger geometry | [`ablate_rows`] |
//! | `ablate-vl` | the 1-D steady state at four and eight lanes, every stride: Mupd/s, cycles and reorganizations per output vector; both widths on each side of `auto`'s crossover | [`ablate_vl`], [`vl_shapes`] |
//!
//! The last six are one [`Table`] of [`Row`]s each: one measurement per
//! row — `kind`, `engine`, `shape`, `metric`, `value` — stated against
//! another row of the table (`of`, in JSON `of_kind` … `of_metric`; the
//! ratio is what a limit bounds) and
//! gated by an optional [`Limit`]. One renderer ([`Table::to_table`]),
//! one JSON writer with one flat object per row ([`Table::to_json`]), one
//! gate ([`Table::violations`]) and one bounded re-measurement
//! ([`Table::remeasure`]) serve all six. The numeric limits are the
//! `repro` binary's constants (`repro.rs`, `fn limit`); the engines `auto`
//! must resolve are set where they are measured ([`ablate_stride`],
//! [`ablate_vl`]).
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
    // Panic-justification: every ablation configuration is hard-coded
    // against its problem; a build failure is a bench-suite bug.
    let build = |b: &PlanBuilder| b.build(problem).expect("bench configurations are valid");
    let mut plans: Vec<tempora_plan::Plan> = builders.iter().map(build).collect();
    let mut state = problem.state();
    fill_state(&mut state);
    let mut tiles = vec![None; plans.len()];
    let best = alternate(plans.len(), 1, |i| {
        // Panic-justification: the state comes from `problem.state()`.
        tiles[i] = plans[i].run(&mut state).expect("state matches plan").tiles;
        std::hint::black_box(&state);
    });
    plans
        .iter()
        .zip(best)
        .zip(tiles)
        .map(|((p, [secs, cycles]), tiles)| Best {
            secs,
            cycles,
            engine: p.engine().map_or("portable", |e| e.name()),
            tiles,
        })
        .collect()
}

/// The timing loop of [`best_of_20_each`], [`engine_runs`] and
/// `lcs_runs`: `run(i)` for each of `n` workspaces in turn, 21 rounds of
/// `reps` runs each; per workspace `[seconds, cycles]` of the fastest run
/// after the first round and the fewest cycles.
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
fn lcs_widths(sel: Select) -> Vec<(Engine, Select)> {
    if sel == Select::Portable || !tempora_simd::arch::avx2_available() {
        return vec![(Engine::Portable, Select::Portable)];
    }
    let wide = sel == Select::Auto && tempora_simd::arch::avx512_available();
    [(Engine::Avx2, Select::Avx2)]
        .into_iter()
        .chain(wide.then_some((Engine::Avx512, Select::Auto)))
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

/// What a [`Row`]'s reading must satisfy for its target to pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// The row's ratio ([`Table::ratio`]) is at most this.
    AtMost(f64),
    /// The row's ratio is at least this.
    AtLeast(f64),
    /// The row's engine is this one: what `auto` must resolve.
    Engine(&'static str),
}

/// `(kind, engine, shape, metric)`: what names a [`Row`] within its
/// [`Table`].
type Key = (&'static str, &'static str, String, &'static str);

/// One measurement of an `ablate-*` target: the unit each of those
/// targets prints, writes to JSON and is gated on, one row at a time.
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// The `repro` target that measured it (`ablate-boundary`, …).
    pub target: &'static str,
    /// Workload kind (`heat2d`, `lcs`, a `State` variant, …).
    pub kind: &'static str,
    /// Engine that ran it (`avx512` | `avx2` | `portable`; `-` for code
    /// no engine dispatches).
    pub engine: &'static str,
    /// Geometry and configuration: extents, stride (`*` marks the
    /// default, `r` a ring in registers), what was timed.
    pub shape: String,
    /// What `value` measures, with its unit (`Mupd/s`, `c/v` = core
    /// cycles per output vector, `µs`, …; `engine` for a row that only
    /// states which engine ran).
    pub metric: &'static str,
    /// The reading (NaN on an `engine` row).
    pub value: f64,
    /// `(kind, engine, shape, metric)` of the row of the same table that
    /// `value` is stated against.
    pub of: Option<(&'static str, &'static str, String, &'static str)>,
    /// What the row must satisfy; `None`: printed, not gated.
    pub limit: Option<Limit>,
    /// What to measure again, on which engine.
    source: Option<(Source, Engine)>,
}

/// What [`Table::remeasure`] measures a row of again: a kind of
/// [`SLAB_KINDS`] at interior extents, or a kind of the 1-D sweep at its
/// outer extent (LCS: `B`'s length).
#[derive(Clone, Copy, Debug)]
enum Source {
    Slab(&'static SlabKind, [usize; 3]),
    Kind1d(Kind1d, usize),
}

/// The kinds of the one 1-D sweep, as `ablate-boundary` times them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind1d {
    Heat1d,
    Gs1d,
    Lcs,
}

impl Row {
    /// An ungated row with no reference.
    pub fn new(target: &'static str, kind: &'static str, engine: &'static str, shape: &str) -> Row {
        Row {
            target,
            kind,
            engine,
            shape: shape.to_string(),
            value: f64::NAN,
            ..Row::default()
        }
    }

    /// This row's `metric` read as `value`.
    pub fn reads(&self, metric: &'static str, value: f64) -> Row {
        Row {
            metric,
            value,
            ..self.clone()
        }
    }

    /// This row stated against `of`.
    pub fn against(self, of: &Row) -> Row {
        Row {
            of: Some(of.key()),
            ..self
        }
    }

    /// `(kind, engine, shape, metric)`.
    pub fn key(&self) -> (&'static str, &'static str, String, &'static str) {
        (self.kind, self.engine, self.shape.clone(), self.metric)
    }
}

/// The rows of one `ablate-*` target, with the one renderer, JSON
/// writer, gate and re-measurement they all share.
#[derive(Clone, Debug)]
pub struct Table {
    /// The heading [`Table::to_table`] prints: target, what it measures,
    /// at which geometry.
    pub title: String,
    /// The measurements, in print order.
    pub rows: Vec<Row>,
    /// Fresh readings of a row's `source`: every row of its kind, engine
    /// and shape. `None` for a target that is not measured again.
    again: Option<fn(&Row) -> Vec<Row>>,
}

/// `x` to three or four significant digits; `-` for NaN.
fn fmt_num(x: f64) -> String {
    match x.abs() {
        a if a.is_nan() => "-".into(),
        a if a >= 100.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.1}"),
        _ => format!("{x:.2}"),
    }
}

impl Limit {
    /// `<= 12`, `>= 0.7`, `= avx512`.
    fn text(self) -> String {
        match self {
            Limit::AtMost(l) => format!("<= {l}"),
            Limit::AtLeast(l) => format!(">= {l}"),
            Limit::Engine(e) => format!("= {e}"),
        }
    }
}

impl Table {
    /// The row `r` states its value against, if it names one.
    ///
    /// # Panics
    /// When `r.of` names a row the table lacks: a harness bug.
    pub fn of(&self, r: &Row) -> Option<&Row> {
        let key = r.of.as_ref()?;
        let of = self.rows.iter().find(|o| o.key() == *key);
        Some(of.unwrap_or_else(|| panic!("{}: no row {key:?}", r.target)))
    }

    /// `r.value` over its [`of`](Table::of) row's value, or `r.value`
    /// itself: what a limit bounds.
    pub fn ratio(&self, r: &Row) -> f64 {
        self.of(r).map_or(r.value, |o| r.value / o.value)
    }

    /// The verdict on `r`: `-` without a limit, `exempt` for a numeric
    /// limit on a portable row (LLVM's code, which no limit models),
    /// `unresolved` for a non-finite ratio (a noisy fit, not evidence
    /// either way: it does not fail the target), else `pass` or `FAIL`.
    pub fn verdict(&self, r: &Row) -> &'static str {
        match r.limit {
            None => "-",
            Some(Limit::Engine(e)) if r.engine == e => "pass",
            Some(Limit::Engine(_)) => "FAIL",
            Some(_) if r.engine == "portable" => "exempt",
            Some(_) if !self.ratio(r).is_finite() => "unresolved",
            Some(Limit::AtMost(l)) if self.ratio(r) > l => "FAIL",
            Some(Limit::AtLeast(l)) if self.ratio(r) < l => "FAIL",
            Some(_) => "pass",
        }
    }

    /// The one gate: every row whose verdict is `FAIL`, described.
    pub fn violations(&self) -> Vec<String> {
        self.rows
            .iter()
            .filter(|r| self.verdict(r) == "FAIL")
            .map(|r| {
                let reading = match r.limit {
                    Some(Limit::Engine(_)) => r.engine.to_string(),
                    _ => fmt_num(self.ratio(r)),
                };
                let limit = r.limit.map_or(String::new(), Limit::text);
                format!(
                    "{} {} {} {} {reading}, limit {limit}",
                    r.kind, r.engine, r.shape, r.metric
                )
            })
            .collect()
    }

    /// Measure the rows that fail their limit or read non-finite again,
    /// up to `retries` rounds `pause` apart, each with every row measured
    /// along with it — and, where that was measured on its own, the row
    /// it is stated against. Of two readings keep the better one for the
    /// row that asked: the higher ratio under an `AtLeast` limit, else
    /// the lower (every re-measured reading is a cost), and finite over
    /// non-finite. A busy sibling hyperthread slows a run for a fraction
    /// of a second at a time, and moves a fitted intercept by more than a
    /// small tile's whole boundary.
    pub fn remeasure(&mut self, retries: usize, pause: std::time::Duration) {
        let Some(again) = self.again else { return };
        for _ in 0..retries {
            // One row of each group of rows measured together.
            let mut todo: Vec<Key> = vec![];
            for r in &self.rows {
                if !matches!(self.verdict(r), "FAIL" | "unresolved") {
                    continue;
                }
                for r in [Some(r), self.of(r)].into_iter().flatten() {
                    let measured = |t: &Key| (t.0, t.1, &t.2) == (r.kind, r.engine, &r.shape);
                    if r.source.is_some() && !todo.iter().any(measured) {
                        todo.push(r.key());
                    }
                }
            }
            if todo.is_empty() {
                break;
            }
            std::thread::sleep(pause);
            for key in todo {
                let named = |r: &&Row| r.key() == key;
                // Panic-justification: `todo` holds keys of this table.
                let old = self.rows.iter().find(named).expect("a row of the table");
                let fresh = again(old);
                // Panic-justification: `again` measures the group of the row
                // it is handed; a re-measurement without that row is a
                // harness bug.
                let new = fresh.iter().find(named).expect("the row measured again");
                let ratio = |r: &Row| match &r.of {
                    Some(of) => {
                        let mut rows = fresh.iter().chain(&self.rows);
                        r.value / rows.find(|o| o.key() == *of).map_or(f64::NAN, |o| o.value)
                    }
                    None => r.value,
                };
                let (n, o) = (ratio(new), self.ratio(old));
                let better = n.is_finite()
                    && (!o.is_finite()
                        || match old.limit {
                            Some(Limit::AtLeast(_)) => n > o,
                            _ => n < o,
                        });
                if !better {
                    continue;
                }
                for mut f in fresh {
                    if let Some(r) = self.rows.iter_mut().find(|r| r.key() == f.key()) {
                        f.limit = r.limit;
                        *r = f;
                    }
                }
            }
        }
    }

    /// Render as an aligned text table: the title, then one line per row
    /// — its reading, its ratio to the row it is stated against (`vs`),
    /// its limit and verdict.
    pub fn to_table(&self) -> String {
        let line = |[kind, engine, shape, metric, value, vs, limit, verdict]: [&str; 8]| {
            let line = format!(
                "{kind:<9}{engine:<9}{shape:<34}{metric:<15}{value:>8}{vs:>7}{limit:>11}  {verdict}"
            );
            format!("{}\n", line.trim_end())
        };
        let head = [
            "kind", "engine", "shape", "metric", "value", "vs", "limit", "verdict",
        ];
        let mut out = format!("{}\n{}", self.title, line(head));
        for r in &self.rows {
            let vs = self.of(r).map_or(String::new(), |_| fmt_num(self.ratio(r)));
            let limit = r.limit.map_or(String::new(), Limit::text);
            let (value, verdict) = (fmt_num(r.value), self.verdict(r));
            out += &line([
                r.kind, r.engine, &r.shape, r.metric, &value, &vs, &limit, verdict,
            ]);
        }
        out
    }

    /// Render as JSON: one flat object per row (`target`, `kind`,
    /// `engine`, `shape`, `metric`, `value`; the row it is stated against
    /// as `of_kind`, `of_engine`, `of_shape`, `of_metric`, all `null`
    /// without one; `ratio`, `limit`, `verdict`), joined by `,\n` —
    /// entries of the `repro --json` document.
    pub fn to_json(&self) -> String {
        let text = |s: &str| format!("\"{}\"", json_escape(s));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let (of, ratio) = match &r.of {
                    Some((k, e, s, m)) => {
                        ([k, e, s.as_str(), m].map(text), json_num(self.ratio(r)))
                    }
                    None => (["null"; 4].map(String::from), "null".into()),
                };
                let [of_kind, of_engine, of_shape, of_metric] = of;
                format!(
                    "{{\"target\":{},\"kind\":{},\"engine\":{},\"shape\":{},\"metric\":{},\
                     \"value\":{},\"of_kind\":{of_kind},\"of_engine\":{of_engine},\
                     \"of_shape\":{of_shape},\"of_metric\":{of_metric},\"ratio\":{ratio},\
                     \"limit\":{},\"verdict\":{}}}",
                    text(r.target),
                    text(r.kind),
                    text(r.engine),
                    text(&r.shape),
                    text(r.metric),
                    json_num(r.value),
                    r.limit.map_or("null".into(), |l| text(&l.text())),
                    text(self.verdict(r))
                )
            })
            .collect();
        rows.join(",\n")
    }
}

/// `s=10*r`: a stride, `*` when it is the default, `r` when its ring
/// stays in registers.
fn stride_shape(s: usize, default: bool, registers: bool) -> String {
    let mark = |on, m| if on { m } else { "" };
    format!("s={s}{}{}", mark(default, "*"), mark(registers, "r"))
}

/// State every row against the row of the best reading of its kind on
/// its engine.
fn against_best(rows: &mut [Row]) {
    let best: Vec<Key> = rows
        .iter()
        .map(|r| {
            let peers = rows
                .iter()
                .filter(|p| (p.kind, p.engine) == (r.kind, r.engine));
            let best = peers.max_by(|a, b| a.value.total_cmp(&b.value));
            // Panic-justification: `r` is among its own peers.
            best.expect("a row is its own peer").key()
        })
        .collect();
    for (r, best) in rows.iter_mut().zip(best) {
        r.of = Some(best);
    }
}

/// The engine every stride of a kind must run on under `auto` on an AVX2
/// host: the one its default `plan` resolves — never the portable one. A
/// portable default plan on such a host is itself the fault, so its rows
/// are limited to `avx2` and fail.
fn simd_engine(plan: Option<Engine>) -> &'static str {
    plan.filter(|&e| e != Engine::Portable)
        .unwrap_or(Engine::Avx2)
        .name()
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
/// table `auto` runs at sixteen lanes — at 256² their boundary phases,
/// which grow with `s`, put `s = 1` far ahead). One `Mupd/s`
/// row per kind, engine and stride, stated against its kind's best
/// stride on the same engine. Under `auto` on an AVX2 host every row is
/// limited to the engine its kind's default plan resolves, never the
/// portable one (`simd_engine`; an LCS row: the engine it was built
/// for) — every accepted stride resolves by
/// capability, and a row that does not runs through libm's `fma` at a
/// sixteenth of its neighbours' speed (the `s = 16` rows of the 1-D
/// kinds once did).
pub fn ablate_stride(scale: usize) -> Table {
    use tempora_core::kernels::JacobiKern1d;
    use tempora_core::{lcs_avx2, t1d_avx2};
    let d = scale.max(1);
    // LCS from 1024² up: the narrowest table `auto` runs at sixteen lanes.
    let (n1, nl) = (((1usize << 20) / d).max(1 << 12), (16384 / d).max(1024));
    let (n2, n3) = ((4096 / d).max(64), (640 / d).max(16));
    let sel = Select::from_env();
    let checked = sel == Select::Auto && tempora_simd::arch::avx2_available();
    let grid_strides = JacobiKern1d::MIN_STRIDE..=JacobiKern1d::MAX_STRIDE;
    // The strides whose ring stays in registers, at four and at eight
    // lanes; no slab stride keeps its ring there.
    let none = 0..=0;
    let slab = |k: &SlabKind| {
        let dims = if k.three_d { [n3; 3] } else { [n2, n2, 1] };
        let problem = (k.problem)(dims, k.ledger_steps);
        (k.name, problem, 2..=4, [none.clone(), none.clone()])
    };
    let registers = [t1d_avx2::REGISTER_STRIDES, t1d_avx2::ZMM_REGISTER_STRIDES];
    let (h1, g1) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    let kinds = [
        (
            "heat1d",
            Problem::heat1d(n1, 32, h1),
            grid_strides.clone(),
            registers.clone(),
        ),
        ("gs1d", Problem::gs1d(n1, 32, g1), grid_strides, registers),
    ];
    let mut rows = vec![];
    let mut push = |kind, engine, shape: String, mupd_per_s, expect: &'static str| {
        let row = Row::new("ablate-stride", kind, engine, &shape).reads("Mupd/s", mupd_per_s);
        let limit = checked.then_some(Limit::Engine(expect));
        rows.push(Row { limit, ..row });
    };
    for (kind, problem, strides, [ymm, zmm]) in kinds.into_iter().chain(SLAB_KINDS.iter().map(slab))
    {
        let plan = plan_of(&problem, PlanBuilder::new().select(sel));
        let (default, expect) = (plan.stride(), simd_engine(plan.engine()));
        for s in strides {
            let builder = PlanBuilder::new().stride(s).select(sel);
            let Best { secs, engine, .. } = best_of_20_each(&problem, &[builder])[0];
            let registers = match engine {
                "avx2" => ymm.contains(&s),
                "avx512" => zmm.contains(&s),
                _ => false,
            };
            let mupd_per_s = (problem.points() * problem.steps()) as f64 / secs / 1e6;
            push(
                kind,
                engine,
                stride_shape(s, s == default, registers),
                mupd_per_s,
                expect,
            );
        }
    }
    // LCS at both widths, each engine's workspace built directly: `auto`
    // picks sixteen lanes only from 1024 columns on.
    let default = default_stride(&Problem::lcs(nl, nl));
    for (engine, _) in lcs_widths(sel) {
        for s in 1..=3 {
            let [best] = lcs_runs(nl, nl, s, &[engine])[..] else {
                unreachable!("one run per engine")
            };
            let registers = engine != Engine::Portable && lcs_avx2::REGISTER_STRIDES.contains(&s);
            let shape = stride_shape(s, s == default, registers);
            push(
                "lcs",
                best.engine,
                shape,
                (nl * nl) as f64 / best.secs / 1e6,
                engine.name(),
            );
        }
    }
    against_best(&mut rows);
    Table {
        title: format!(
            "# ablate-stride — temporal stride sweep (1-D {n1} x 32 steps, LCS {nl}², 2-D {n2}², \
             3-D {n3}³; * = default stride, r = ring in registers; vs = over the kind's best \
             stride on its engine)"
        ),
        rows,
        again: None,
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
/// kind's two default plans once more, alternating: the eight-lane one's
/// `Mupd/s` row is stated against the four-lane one's, the gain the
/// `repro` gate reads. The `f64` 2-D kinds likewise at both widths
/// (`engine_runs`) at the ledger's 256² × 8 steps, their rings kept in
/// L1 by segments — counted too: 2 per vector in 2-D as in 1-D. LCS at
/// eight and sixteen `i32` lanes (`lcs_runs`) on the ledger's untiled
/// 1024² and on 8192² (not counted: its sweep is not instrumented). Then
/// one `engine` row per ledger problem of these six kinds: the engine
/// `auto` resolves, limited on an AVX-512 host to the one it must. Last,
/// both widths over the shapes of [`vl_shapes`], on each side of each
/// kind's crossover. A width the CPU lacks has no rows.
pub fn ablate_vl() -> Table {
    use tempora_core::kernels::JacobiKern1d;
    use tempora_core::t1d_avx2;
    let (n, steps) = (1 << 16, 32);
    let avx2 = tempora_simd::arch::avx2_available().then_some((4, Select::Avx2, Engine::Avx2));
    let avx512 =
        tempora_simd::arch::avx512_available().then_some((8, Select::Auto, Engine::Avx512));
    let widths: Vec<(usize, Select, Engine)> = avx2.into_iter().chain(avx512).collect();
    let engines: Vec<Engine> = widths.iter().map(|w| w.2).collect();
    let (h1, g1) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    let kinds = [
        ("heat1d", Problem::heat1d(n, steps, h1)),
        ("gs1d", Problem::gs1d(n, steps, g1)),
    ];
    let mut rows = vec![];
    // Throughput, cycles and reorganizations per vector of one run.
    let mut push = |row: Row, mupd_per_s, cycles_per_vector, reorg_per_vector: Option<f64>| {
        rows.push(row.reads("Mupd/s", mupd_per_s));
        rows.push(row.reads("c/v", cycles_per_vector));
        rows.extend(reorg_per_vector.map(|k| row.reads("reorg/vec", k)));
    };
    let mut gains = vec![];
    for (kind, problem) in kinds {
        let defaults: Vec<PlanBuilder> = widths
            .iter()
            .map(|&(_, sel, _)| PlanBuilder::new().select(sel))
            .collect();
        let default_strides: Vec<usize> = defaults
            .iter()
            .map(|&b| plan_of(&problem, b).stride())
            .collect();
        for s in JacobiKern1d::MIN_STRIDE..=JacobiKern1d::MAX_STRIDE {
            let builders: Vec<PlanBuilder> = defaults.iter().map(|b| b.stride(s)).collect();
            let runs = best_of_20_each(&problem, &builders);
            for ((&(vl, ..), b), (best, &default)) in widths
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
                let registers = [t1d_avx2::REGISTER_STRIDES, t1d_avx2::ZMM_REGISTER_STRIDES];
                let registers = registers[(vl == 8) as usize].contains(&s);
                let shape = stride_shape(s, s == default, registers);
                push(
                    Row::new("ablate-vl", kind, best.engine, &shape),
                    (n * steps) as f64 / best.secs / 1e6,
                    best.cycles / vectors,
                    Some(reorg),
                );
            }
        }
        if let [four, eight] = best_of_20_each(&problem, &defaults)[..] {
            let mupd_per_s = |b: Best| (n * steps) as f64 / b.secs / 1e6;
            let four = Row::new("ablate-vl", kind, four.engine, "default plans")
                .reads("Mupd/s", mupd_per_s(four));
            let eight = Row::new("ablate-vl", kind, eight.engine, "default plans")
                .reads("Mupd/s", mupd_per_s(eight));
            gains.extend([eight.against(&four), four]);
        }
    }
    let (n2, steps2) = (256, 8);
    for (kind, problem) in wide_slab_kinds(n2, steps2) {
        for run in engine_runs(&problem, &engines) {
            let (vl, s) = (run.vl, SLAB_STRIDE);
            let vectors = (steps2 / vl * (n2 + 1 - vl * s) * n2) as f64;
            let shape = format!("{n2}^2 x {steps2} s={s}*");
            push(
                Row::new("ablate-vl", kind, run.best.engine, &shape),
                problem.points() as f64 * steps2 as f64 / run.best.secs / 1e6,
                run.best.cycles / vectors,
                Some(run.reorg_per_vector),
            );
        }
    }
    // LCS at eight and sixteen lanes: the ledger's untiled 1024² and the
    // 8192² its tiled run cuts into blocks.
    for (kind, n) in [("lcs1024", 1024), ("lcs8192", 8192)] {
        let s = default_stride(&Problem::lcs(n, n));
        let registers = tempora_core::lcs_avx2::REGISTER_STRIDES.contains(&s);
        for (&engine, best) in engines.iter().zip(lcs_runs(n, n, s, &engines)) {
            let vl = tempora_core::lcs::vl(engine);
            push(
                Row::new(
                    "ablate-vl",
                    kind,
                    best.engine,
                    &stride_shape(s, true, registers),
                ),
                (n * n) as f64 / best.secs / 1e6,
                best.cycles / (n / vl * (n - vl * s)) as f64,
                None,
            );
        }
    }
    rows.extend(gains);
    let (h2, g2) = (Heat2dCoeffs::classic(0.125), Gs2dCoeffs::classic(0.2));
    let rect = Tiling::LcsRect {
        xblock: 1024,
        yblock: 1024,
    };
    let ledger = [
        (Problem::heat1d(1 << 16, 32, h1), "avx512"),
        (Problem::gs1d(1 << 16, 32, g1), "avx512"),
        (Problem::heat1d(4096, 32, h1), "avx512"),
        // Twelve steps: four scalar levels at eight lanes, none at four.
        (Problem::heat2d(256, 256, 12, h2), "avx2"),
        (
            Problem::box2d(256, 256, 8, Box2dCoeffs::smooth(0.1)),
            "avx512",
        ),
        (Problem::gs2d(256, 256, 8, g2), "avx512"),
        (Problem::heat2d(1024, 1024, 24, h2), "avx512"),
        (Problem::gs2d(768, 768, 16, g2), "avx512"),
        (Problem::lcs(1024, 1024), "avx512"),
    ]
    .map(|(p, expect)| (p, PlanBuilder::new(), "", expect))
    .into_iter()
    .chain([(
        Problem::lcs(8192, 8192),
        PlanBuilder::new().tiling(rect).threads(2),
        " tiled 1024^2",
        "avx512",
    )]);
    for (p, builder, tiled, expect) in ledger {
        let engine = plan_of(&p, builder).engine().map_or("none", |e| e.name());
        let shape = format!("{} x {}{tiled}", p.extents()[0], p.steps());
        let row = Row::new("ablate-vl", p.kind_name(), engine, &shape).reads("engine", f64::NAN);
        let limit = avx512.map(|_| Limit::Engine(expect));
        rows.push(Row { limit, ..row });
    }
    rows.extend(vl_shapes());
    Table {
        title: format!(
            "# ablate-vl — one steady state at four and eight lanes (1-D {n} x {steps} steps, \
             every stride; the f64 2-D kinds at {n2}^2 x {steps2}, ring in L1 by segments; LCS \
             untiled n^2 at eight and sixteen i32 lanes; * = default stride, r = ring in \
             registers; default plans: eight lanes vs four; engine: what auto resolves for a \
             ledger problem; n x steps: both widths around auto's crossovers, the width auto \
             takes vs the other)"
        ),
        rows,
        again: None,
    }
}

/// Where the wider lanes start to pay: Heat-1D and GS-1D over lines of
/// 128 … 4096 points at 32, 12 and 9 steps, and Heat-2D, 2D9P and GS-2D
/// over squares of 16² … 256² at 8, 16 and 9 steps, each shape untiled at
/// four lanes ([`Engine::Avx2`]) and eight ([`Engine::Avx512`]) at their
/// default strides (`engine_runs`: `auto` picks only one of them, and the
/// point is to time the one it does not); and LCS over `n × n` tables of
/// 128 … 8192 at eight and sixteen lanes (`lcs_runs`) — the rows that
/// set `tempora_core::lcs::WIDE_MIN_LB`. Two `Mupd/s` rows per shape, one
/// per width; the one of the width a default plan resolves (the narrow
/// one unless that is `avx512`) is stated against the other. Empty
/// without AVX-512F.
///
/// [`Engine::Avx2`]: tempora_core::engine::Engine::Avx2
/// [`Engine::Avx512`]: tempora_core::engine::Engine::Avx512
pub fn vl_shapes() -> Vec<Row> {
    if !tempora_simd::arch::avx512_available() {
        return vec![];
    }
    let mut rows = vec![];
    let mut push = |kind, problem: Problem, [narrow, wide]: [f64; 2]| {
        let shape = format!("{} x {}", problem.extents()[0], problem.steps());
        let updates = problem.points() as f64 * problem.steps() as f64;
        let row = |engine: Engine, secs| {
            Row::new("ablate-vl", kind, engine.name(), &shape).reads("Mupd/s", updates / secs / 1e6)
        };
        let (narrow, wide) = (row(Engine::Avx2, narrow), row(Engine::Avx512, wide));
        let auto = plan_of(&problem, PlanBuilder::new()).engine();
        rows.extend(if auto == Some(Engine::Avx512) {
            [wide.against(&narrow), narrow]
        } else {
            [narrow.against(&wide), wide]
        });
    };
    let secs = |problem: &Problem| {
        let [four, eight] = engine_runs(problem, &[Engine::Avx2, Engine::Avx512])[..] else {
            unreachable!("one run per engine")
        };
        [four.best.secs, eight.best.secs]
    };
    let (h, g) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    for steps in [32, 12, 9] {
        for nx in [128, 256, 512, 1024, 2048, 4096] {
            for (kind, problem) in [
                ("heat1d", Problem::heat1d(nx, steps, h)),
                ("gs1d", Problem::gs1d(nx, steps, g)),
            ] {
                push(kind, problem, secs(&problem));
            }
        }
    }
    for steps in [8, 16, 9] {
        for n in [16, 32, 64, 128, 256] {
            for (kind, problem) in wide_slab_kinds(n, steps) {
                push(kind, problem, secs(&problem));
            }
        }
    }
    for n in [128, 256, 512, 1024, 2048, 4096, 8192] {
        let problem = Problem::lcs(n, n);
        let s = default_stride(&problem);
        let [narrow, wide] = lcs_runs(n, n, s, &[Engine::Avx2, Engine::Avx512])[..] else {
            unreachable!("one run per engine")
        };
        push("lcs", problem, [narrow.secs, wide.secs]);
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

/// The steady loop of one AVX2 slab row as `objdump` shows it, per pass
/// (README, "Slab steady state", has the recipe), and the cycles per
/// output vector it cannot go below on a core that issues six fused µops,
/// two FMA-port µops and two loads a cycle.
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
    /// FMAs on one row's loop-carried chain through its previous output
    /// vector (Gauss-Seidel), 0 for the Jacobi rows.
    pub chain: u32,
    /// Rows a pass runs, one output vector each: the independent chains
    /// the loop interleaves (a Gauss-Seidel pair: 2), 1 for the Jacobi
    /// rows.
    pub chains: u32,
}

impl RowModel {
    /// Latency of one `vfmadd`, cycles.
    const FMA_LATENCY: f64 = 4.0;

    /// Cycles per output vector the loop cannot beat: the busiest of the
    /// FMA ports, the load ports and the front end, or for Gauss-Seidel
    /// the loop-carried FMA chain, whichever is longer, over the vectors
    /// a pass produces.
    pub fn cycles_per_vector(&self) -> f64 {
        let ports = (self.fma_port.max(self.loads) as f64 / 2.0).max(self.uops as f64 / 6.0);
        ports.max(self.chain as f64 * Self::FMA_LATENCY) / self.chains as f64
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

/// The six slab kinds. A loop's counts are per pass: one output vector for
/// the Jacobi rows, two for the Gauss-Seidel pairs. In the eight-lane
/// loops the vector ports are p0 and p5, and p5 also takes the rotate,
/// the lane-0 insert of the blend (`vmovlpd` + `vinsertf32x4`) and the
/// top-lane `vextractf32x4`, so those four count as FMA-port µops.
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
            chains: 1,
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
            chains: 1,
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
            chains: 1,
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
            chains: 1,
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
            chains: 1,
        },
    },
    SlabKind {
        name: "gs2d",
        vl: 4,
        // Two anchors a pass (`slab::Rows::steady_pair`, `s = 2`: the
        // second's south operand in a register).
        wide: Some(RowModel {
            insns: 33,
            uops: 32,
            fma_port: 18,
            loads: 6,
            chain: 2,
            chains: 2,
        }),
        three_d: false,
        ledger_steps: 8,
        problem: |[nx, ny, _], steps| Problem::gs2d(nx, ny, steps, Gs2dCoeffs::classic(0.2)),
        // Two loads of a coefficient spilled to the stack among the eight.
        model: RowModel {
            insns: 34,
            uops: 33,
            fma_port: 10,
            loads: 8,
            chain: 2,
            chains: 2,
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
            chains: 1,
        },
    },
    SlabKind {
        name: "gs3d",
        vl: 4,
        wide: None,
        three_d: true,
        ledger_steps: 4,
        problem: |[nx, ny, nz], steps| Problem::gs3d(nx, ny, nz, steps, Gs3dCoeffs::classic(0.1)),
        // Rows `r` and `r + 1` a pass; five of the sixteen loads reload
        // spilled row pointers from the stack.
        model: RowModel {
            insns: 42,
            uops: 41,
            fma_port: 14,
            loads: 16,
            chain: 3,
            chains: 2,
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

/// `64x128x1`.
fn dims_shape([x, y, z]: [usize; 3]) -> String {
    format!("{x}x{y}x{z}")
}

/// Where the time goes in a tile (ROADMAP aim 1: "bare steady state vs
/// whole tile"). Per kind and engine, time an untiled run at the `ledger`
/// benchmark's geometry (`scale` = 16; `scale` ≥ 64 gives its `--smoke`
/// geometry) and at 10× the outer extent, minimum of 20 runs each: the
/// 2-D/3-D kinds through `engine_runs`, and the three kinds of the 1-D
/// sweep — Heat-1D and GS-1D (`engine_runs`, `n` cells × 256 steps) and
/// LCS (`lcs_runs`, 1024 `× lb` at stride 2, `lb` the outer
/// extent) — each on its engine's
/// default stride. A tile (an LCS band) is linear in its steady anchors
/// `x_max = n + e - VL·s` (`e = 1` for the 3-point kernels, 0 for LCS),
/// so the two points give the steady cost per anchor (the slope) and the
/// fixed boundary cost per tile (the intercept at `x_max = 0`); dividing
/// by the point-updates each part performs (`VL·inner` per anchor, one
/// cell wide in 1-D; `VL·inner·(n - x_max)` in the boundary) states both
/// per update. Four rows per kind and engine: the whole tile and its
/// boundary (`µs`, the boundary stated against the tile: its share, of
/// which ± 0.03 is below what two timings resolve), the steady and the
/// boundary cost of a point-update (`ns/u`, the boundary's stated against
/// the steady one's: the paper's argument needs this ratio to be a small
/// constant; ≈ 20 means the boundary code is calling libm `fma`). Rows
/// are produced for the AVX2 and AVX-512 engines (where the CPU has them;
/// AVX-512 for the kinds with an eight-lane sweep) and the portable one.
/// A row measured again ([`Table::remeasure`]) is fitted again, all four
/// together.
pub fn ablate_boundary(scale: usize) -> Table {
    let d = scale.max(1);
    let (n2, n3) = ((4096 / d).max(64), (640 / d).max(16));
    let (n1, nl) = ((8192 / d).max(512), (16384 / d).max(256));
    let mut rows = vec![];
    for engine in forced_engines() {
        for k in kinds_on(engine) {
            let dims = if k.three_d { [n3; 3] } else { [n2, n2, 1] };
            rows.extend(boundary_rows(Source::Slab(k, dims), engine));
        }
        for (kind, n) in [(Kind1d::Heat1d, n1), (Kind1d::Gs1d, n1), (Kind1d::Lcs, nl)] {
            rows.extend(boundary_rows(Source::Kind1d(kind, n), engine));
        }
    }
    Table {
        title: format!(
            "# ablate-boundary — where the time goes in a tile (base: 2-D {n2}², 3-D {n3}³, \
             1-D {n1} x {STEPS_1D} steps, LCS {}x{nl}; fitted against 10× the outer extent; vs = \
             boundary share of the tile, boundary over steady cost of a point-update)",
            LCS_ROWS
        ),
        rows,
        again: Some(|r| {
            // Panic-justification: every row of this table has a source.
            let (source, engine) = r.source.expect("boundary rows know their source");
            boundary_rows(source, engine)
        }),
    }
}

/// The DP rows of `ablate-boundary`'s LCS tables, the ledger's: 64 bands
/// of sixteen lanes share a run's fixed cost at any `--scale`.
const LCS_ROWS: usize = 1024;

/// The steps of `ablate-boundary`'s Heat-1D and GS-1D runs: 32 to 64
/// tiles of about a microsecond share a run's fixed cost, which would
/// otherwise read as a quarter of a tile's boundary.
const STEPS_1D: usize = 256;

/// One tile of the 1-D `kind` at outer extent `n` on `engine` (LCS:
/// one band of a [`LCS_ROWS`] `× n` table): `(seconds, VL, s, e)`, the
/// stride the engine defaults to and the kind's reach east.
fn tile_1d(kind: Kind1d, n: usize, engine: Engine) -> (f64, usize, usize, usize) {
    let problem = match kind {
        Kind1d::Heat1d => Problem::heat1d(n, STEPS_1D, Heat1dCoeffs::classic(0.25)),
        Kind1d::Gs1d => Problem::gs1d(n, STEPS_1D, Gs1dCoeffs::classic(0.25)),
        Kind1d::Lcs => {
            let (s, vl) = (2, tempora_core::lcs::vl(engine));
            let [best] = lcs_runs(LCS_ROWS, n, s, &[engine])[..] else {
                unreachable!("one run per engine")
            };
            return (best.secs / (LCS_ROWS / vl) as f64, vl, s, 0);
        }
    };
    let [ref run] = engine_runs(&problem, &[engine])[..] else {
        unreachable!("one run per engine")
    };
    let s = match kind {
        Kind1d::Gs1d => tempora_core::kernels::GsKern1d::default_stride(engine),
        _ => tempora_core::kernels::JacobiKern1d::default_stride(engine),
    };
    (run.best.secs / (STEPS_1D / run.vl) as f64, run.vl, s, 1)
}

/// The rows of [`ablate_boundary`] for `source` on `engine`.
fn boundary_rows(source: Source, engine: Engine) -> Vec<Row> {
    // Seconds per tile at the base extent, per steady anchor (the slope
    // to 10×), the steady anchors `x_max` and the point-updates of one.
    let (name, shape, t1, per_anchor, x_max, n, per_update) = match source {
        Source::Slab(k, dims) => {
            let vl = k.lanes(engine);
            let ([t1, _], [per_slab, _]) = tile_and_slab(k, dims, engine);
            let x_max = dims[0] + 1 - vl * SLAB_STRIDE;
            let shape = dims_shape(dims);
            (
                k.name,
                shape,
                t1,
                per_slab,
                x_max,
                dims[0],
                vl * k.inner(dims),
            )
        }
        Source::Kind1d(kind, n) => {
            let (t1, vl, s, e) = tile_1d(kind, n, engine);
            let (t10, ..) = tile_1d(kind, 10 * n, engine);
            let (name, shape) = match kind {
                Kind1d::Heat1d => ("heat1d", format!("{n}")),
                Kind1d::Gs1d => ("gs1d", format!("{n}")),
                Kind1d::Lcs => ("lcs", format!("{LCS_ROWS}x{n}")),
            };
            let per_anchor = (t10 - t1) / (9 * n) as f64;
            (name, shape, t1, per_anchor, n + e - vl * s, n, vl)
        }
    };
    let boundary = t1 - per_anchor * x_max as f64;
    let row = Row {
        source: Some((source, engine)),
        ..Row::new("ablate-boundary", name, engine.name(), &shape)
    };
    let tile = row.reads("tile µs", t1 * 1e6);
    let steady = row.reads("steady ns/u", per_anchor * 1e9 / per_update as f64);
    let boundary_ns = boundary * 1e9 / (per_update * (n - x_max)) as f64;
    vec![
        row.reads("boundary µs", boundary * 1e6).against(&tile),
        tile,
        row.reads("boundary ns/u", boundary_ns).against(&steady),
        steady,
    ]
}

/// Interior extents of `ablate-rows`' L1-resident geometry, 2-D and 3-D:
/// rows as wide as the ledger's 3-D rows; 2-D slabs of 130 packs (ring 17
/// KB, 33 KB at eight lanes), 3-D slabs of 6 x 42 (ring 32 KB, 48 KB with
/// the Gauss-Seidel output slabs).
const ROWS_L1: [[usize; 3]; 2] = [[64, 128, 1], [16, 4, 40]];

/// Interior extents of the ledger geometry, 2-D and 3-D.
const ROWS_LEDGER: [[usize; 3]; 2] = [[256, 256, 1], [40, 40, 40]];

/// The `ns/u` and `c/v` rows of [`ablate_rows`] for `kind` on `engine` at
/// `dims`, its geometry `label`led `L1`, `ledger` or `width`: the
/// steady cost of a point-update in ns and of an output vector (`vl`
/// point-updates) in core cycles, the latter stated against the kind's
/// port bound (a `width` row: against Heat-2D's L1 row on the engine).
fn steady_rows(kind: &'static SlabKind, engine: Engine, dims: [usize; 3], label: &str) -> Vec<Row> {
    let vl = kind.lanes(engine);
    let (_, [secs, cycles]) = tile_and_slab(kind, dims, engine);
    let updates = (vl * kind.inner(dims)) as f64;
    let mut shape = format!("{label} {}", dims_shape(dims));
    let of = if label == "width" {
        // Bytes of a ring of whole rows: `s + 2` rows of `columns + 2`
        // packs — what the steady state would keep in flight without
        // segments.
        let ring = ((SLAB_STRIDE + 2) * (dims[1] + 2) * vl * 8) as f64 / 1024.0;
        shape.push_str(&format!(" ring {ring:.0} KB"));
        let l1 = format!("L1 {}", dims_shape(ROWS_L1[0]));
        (SLAB_KINDS[0].name, engine.name(), l1, "c/v")
    } else {
        (kind.name, engine.name(), "port bound".into(), "c/v")
    };
    let row = Row {
        source: Some((Source::Slab(kind, dims), engine)),
        ..Row::new("ablate-rows", kind.name, engine.name(), &shape)
    };
    let cycles_per_vector = row.reads("c/v", cycles / updates * vl as f64);
    vec![
        row.reads("ns/u", secs * 1e9 / updates),
        Row {
            of: Some(of),
            ..cycles_per_vector
        },
    ]
}

/// ROADMAP item 2(d): the slab steady state against a ceiling. Per slab
/// kind and engine — AVX2, AVX-512 for the kinds with an eight-lane sweep,
/// portable — the steady cost of a point-update (the slope of
/// [`ablate_boundary`]'s fit) at a geometry whose wavefront ring — `s + 2`
/// slabs of packs, plus two for Gauss-Seidel — sits in L1, and at the
/// `ledger` benchmark's geometry, in cycles per vector next to the kind's
/// [`RowModel`] (a `port bound` row; the portable rows are LLVM's code
/// and are stated against the AVX2 bound). Then Heat-2D on each
/// `std::arch` engine over rows of 128 … 1024 columns, whose whole-row
/// rings reach 20 times L1 and which the steady state keeps in L1 by
/// segments, stated against the engine's L1 reading. The geometry is the
/// same at any `--scale`. A row measured again ([`Table::remeasure`]) is
/// timed again with its `ns/u` twin.
pub fn ablate_rows() -> Table {
    let mut rows = vec![];
    for engine in forced_engines() {
        for kind in kinds_on(engine) {
            let bound = Row::new("ablate-rows", kind.name, engine.name(), "port bound");
            rows.push(bound.reads("c/v", kind.model(engine).cycles_per_vector()));
            for (label, dims) in [("L1", ROWS_L1), ("ledger", ROWS_LEDGER)] {
                rows.extend(steady_rows(
                    kind,
                    engine,
                    dims[kind.three_d as usize],
                    label,
                ));
            }
        }
    }
    for engine in forced_engines()
        .into_iter()
        .filter(|&e| e != Engine::Portable)
    {
        for columns in [128, 192, 256, 320, 384, 512, 768, 1024] {
            rows.extend(steady_rows(
                &SLAB_KINDS[0],
                engine,
                [WIDTH_ROWS, columns, 1],
                "width",
            ));
        }
    }
    Table {
        title: format!(
            "# ablate-rows — slab steady rows against their port bound (L1: ring in L1; ledger: \
             the ledger's geometry; c/v = core cycles per output vector, clock sampled around \
             each run; port bound = max(FMA-port µops/2, loads/2, µops/6, Gauss-Seidel: 4 x \
             chained FMAs) / rows a pass runs, counts in `SLAB_KINDS`; width: heat2d over rows \
             of {WIDTH_ROWS} x columns, ring = s + 2 whole rows of packs kept in L1 by \
             segments, vs its engine's L1 reading)"
        ),
        rows,
        again: Some(|r| {
            // Panic-justification: every measured row of this table has a
            // source; a `port bound` row is never over its limit.
            let Some((Source::Slab(kind, dims), engine)) = r.source else {
                unreachable!("steady rows know their slab kind")
            };
            let label = r.shape.split(' ').next().unwrap_or_default();
            steady_rows(kind, engine, dims, label)
        }),
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
/// anything to the tiling at either width. Rows in `µs`: the tiled
/// one-thread run stated against the untiled one (the untiled run is the
/// one-chunk schedule of the executor the tiled plans run), the
/// two-thread run against the one-thread one.
pub fn ablate_tiling(scale: usize, cores: usize) -> Table {
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
        let vl = vl * if runs[1].engine == "avx512" { 2 } else { 1 };
        let steps = problem.steps();
        let shape = format!(
            "block {} x {} chunks, {} sweeps",
            tiles.block,
            tiles.tiles,
            steps / vl + steps % vl
        );
        let row = Row::new("ablate-tiling", kind, runs[1].engine, &shape);
        let untiled = row.reads("untiled µs", runs[0].secs * 1e6);
        let one = row.reads("tiled-1t µs", runs[1].secs * 1e6);
        let two = runs
            .get(2)
            .map(|r| row.reads("tiled-2t µs", r.secs * 1e6).against(&one));
        rows.push(untiled.clone());
        rows.push(one.against(&untiled));
        rows.extend(two);
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
    let rect = Tiling::LcsRect {
        xblock: 1024,
        yblock: 1024,
    };
    for (_, sel) in lcs_widths(sel) {
        row_of(
            "LCS",
            Problem::lcs(8192, 8192),
            PlanBuilder::new().select(sel),
            rect,
            8,
        );
    }
    Table {
        title: format!(
            "# ablate-tiling — what tiling costs and what a second thread gains (Table-1 \
             parallel geometry, scale 1/{scale}; LCS: the ledger's 8192^2 / 1024^2 at each \
             width; untiled = the same executor's one-chunk schedule)"
        ),
        rows,
        again: None,
    }
}

/// What the digest of a served reply costs (ROADMAP item 4(a)). The hash
/// is a loop-carried recurrence; `state_digest` deals the words across
/// `LANES` independent chains, and when a change makes the compiler
/// serialise them every digest stays equal, every test passes, and the
/// digest of a cache hit costs 7 µs instead of 2. Per `State` variant at the served
/// size (32 KiB of payload; the ledger's 4096-point Heat-1D first),
/// minimum of 20 timings of 32 calls each, in MiB/s: the digest (stated
/// against the next row), its definition one lane at a time, and a
/// wrapping sum of the same words — what reading them costs. No engine
/// runs these (`-`).
pub fn ablate_digest() -> Table {
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
    let mut rows = vec![];
    for problem in &problems {
        let state = tempora_server::fresh_state(problem, SEED);
        let input = DigestInput::of(&state);
        let bytes = 8 * input.parts.iter().map(Vec::len).sum::<usize>();
        let row = Row::new(
            "ablate-digest",
            state.variant_name(),
            "-",
            &format!("{bytes} B"),
        );
        let digest = mib_per_s(bytes, &mut || {
            tempora_proto::state_digest(std::hint::black_box(&state))
        });
        let spec = mib_per_s(bytes, &mut || std::hint::black_box(&input).digest());
        let sum = mib_per_s(bytes, &mut || {
            let parts = &std::hint::black_box(&input).parts;
            parts.iter().flatten().fold(0, |s, &w| s.wrapping_add(w))
        });
        let spec = row.reads("spec MiB/s", spec);
        rows.extend([
            row.reads("digest MiB/s", digest).against(&spec),
            spec,
            row.reads("sum MiB/s", sum),
        ]);
    }
    Table {
        title: format!(
            "# ablate-digest — state_digest ({LANES} lanes) vs its one-chain spec vs a word sum \
             (served reference sizes)"
        ),
        rows,
        again: None,
    }
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
        assert_eq!(bound("gs2d"), 4.0); // 2 chained FMAs, two rows a pass
        assert_eq!(bound("gs3d"), 6.0); // 3 chained FMAs, two rows a pass
        let wide = SLAB_KINDS.iter().find(|k| k.name == "gs2d").unwrap().wide;
        assert_eq!(wide.unwrap().cycles_per_vector(), 4.5); // 18 FMA-port µops / 2 / 2
    }

    /// A row of target `t` measuring `metric` of `kind` on `engine`.
    fn row(kind: &'static str, engine: &'static str, metric: &'static str, value: f64) -> Row {
        Row::new("t", kind, engine, "n").reads(metric, value)
    }

    /// `rows`, measured again by [`fake_again`].
    fn table(rows: Vec<Row>) -> Table {
        Table {
            title: "# t".into(),
            rows,
            again: Some(fake_again),
        }
    }

    thread_local! {
        /// The readings [`fake_again`] hands out, and how many it did.
        static READINGS: std::cell::RefCell<(Vec<f64>, usize)> = Default::default();
    }

    /// A re-measurement with no timing: the next of [`READINGS`].
    fn fake_again(r: &Row) -> Vec<Row> {
        READINGS.with_borrow_mut(|(next, calls)| {
            *calls += 1;
            vec![r.reads(r.metric, next.remove(0))]
        })
    }

    fn limited(r: Row, limit: Limit) -> Row {
        Row {
            limit: Some(limit),
            ..r
        }
    }

    #[test]
    fn gate_passes_a_limit_at_its_value() {
        let spec = row("Grid1", "-", "spec", 2.0);
        let t = table(vec![
            limited(row("a", "avx2", "m", 12.0), Limit::AtMost(12.0)),
            limited(row("b", "avx2", "m", 12.01), Limit::AtMost(12.0)),
            limited(
                row("Grid1", "-", "digest", 3.0).against(&spec),
                Limit::AtLeast(1.5),
            ),
            limited(
                row("Grid1", "-", "sum", 2.98).against(&spec),
                Limit::AtLeast(1.5),
            ),
            spec,
        ]);
        let verdicts: Vec<&str> = t.rows.iter().map(|r| t.verdict(r)).collect();
        assert_eq!(verdicts, ["pass", "FAIL", "pass", "FAIL", "-"]);
        let v = t.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("b avx2 n m 12.0, limit <= 12"), "{v:?}");
        assert!(v[1].contains("1.49, limit >= 1.5"), "{v:?}");
    }

    #[test]
    fn gate_fails_another_engine_even_a_portable_one() {
        let t = table(vec![
            limited(
                row("heat1d", "avx512", "engine", f64::NAN),
                Limit::Engine("avx512"),
            ),
            limited(
                row("heat2d", "avx2", "engine", f64::NAN),
                Limit::Engine("avx512"),
            ),
            limited(row("lcs", "portable", "Mupd/s", 1.0), Limit::Engine("avx2")),
            // A stride row whose kind's default plan itself resolved the
            // portable engine under `auto` on an AVX2 host.
            limited(
                row("heat3d", "portable", "Mupd/s", 1.0),
                Limit::Engine(simd_engine(None)),
            ),
            limited(
                row("gs3d", "portable", "Mupd/s", 1.0),
                Limit::Engine(simd_engine(Some(Engine::Portable))),
            ),
            limited(
                row("heat1d", "avx512", "Mupd/s", 1.0),
                Limit::Engine(simd_engine(Some(Engine::Avx512))),
            ),
        ]);
        let verdicts: Vec<&str> = t.rows.iter().map(|r| t.verdict(r)).collect();
        assert_eq!(verdicts, ["pass", "FAIL", "FAIL", "FAIL", "FAIL", "pass"]);
        assert!(t.violations()[0].contains("avx2, limit = avx512"));
        assert!(t.violations()[3].contains("portable, limit = avx2"));
    }

    #[test]
    fn gate_exempts_portable_rows_from_numeric_limits() {
        // The portable rows are LLVM's code: no bound models them.
        let t = table(vec![
            limited(
                row("heat2d", "portable", "ratio", 20.0),
                Limit::AtMost(12.0),
            ),
            limited(row("heat2d", "portable", "gain", 0.1), Limit::AtLeast(0.7)),
            limited(row("heat2d", "avx2", "ratio", 20.0), Limit::AtMost(12.0)),
        ]);
        let verdicts: Vec<&str> = t.rows.iter().map(|r| t.verdict(r)).collect();
        assert_eq!(verdicts, ["exempt", "exempt", "FAIL"]);
    }

    #[test]
    fn gate_leaves_a_non_finite_ratio_unresolved() {
        // A fit whose slope noise drove to zero is not evidence either way.
        let steady = row("gs2d", "avx2", "steady", 0.0);
        let t = table(vec![
            limited(
                row("gs2d", "avx2", "boundary", 1.0).against(&steady),
                Limit::AtMost(7.0),
            ),
            limited(
                row("heat2d", "avx2", "ratio", f64::NAN),
                Limit::AtLeast(1.1),
            ),
            steady,
        ]);
        assert_eq!(t.verdict(&t.rows[0]), "unresolved");
        assert_eq!(t.verdict(&t.rows[1]), "unresolved");
        assert!(t.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "t: no row (\"heat2d\", \"avx2\", \"L1\", \"c/v\")")]
    fn gate_panics_on_a_missing_reference_row() {
        // A width row stated against an L1 row that was never measured is a
        // harness bug, not a reading.
        let l1 = row("heat2d", "avx2", "c/v", 3.0);
        let t = table(vec![limited(
            row("heat2d", "avx2", "c/v", 4.0).against(&Row {
                shape: "L1".into(),
                ..l1
            }),
            Limit::AtMost(1.15),
        )]);
        t.violations();
    }

    #[test]
    fn remeasure_keeps_the_better_reading_within_its_budget() {
        let source = Some((Source::Slab(&SLAB_KINDS[0], [1, 1, 1]), Engine::Avx2));
        let over = Row {
            source,
            ..limited(row("heat2d", "avx2", "c/v", 5.0), Limit::AtMost(2.0))
        };
        let short = Row {
            source,
            ..limited(row("gs2d", "avx2", "Mupd/s", 5.0), Limit::AtLeast(10.0))
        };
        let mut t = table(vec![over.clone()]);
        READINGS.set((vec![6.0, 4.0, 7.0, 1.0], 0));
        t.remeasure(3, std::time::Duration::ZERO);
        // Three readings, the lowest kept; the fourth is never taken.
        assert_eq!(t.rows[0].value, 4.0);
        assert_eq!(t.rows[0].limit, Some(Limit::AtMost(2.0)));
        assert_eq!(READINGS.with_borrow(|r| r.clone()), (vec![1.0], 3));
        // A row back under its limit stops the retries.
        READINGS.set((vec![1.0, 9.0], 0));
        t.remeasure(3, std::time::Duration::ZERO);
        assert_eq!((t.rows[0].value, t.verdict(&t.rows[0])), (1.0, "pass"));
        assert_eq!(READINGS.with_borrow(|r| r.1), 1);
        // A row over its limit against a row measured on its own has that
        // row measured again too, each keeping its lower reading.
        let l1 = Row {
            shape: "L1".into(),
            ..over.clone()
        };
        let width = limited(over.clone(), Limit::AtMost(1.15)).against(&l1);
        let mut t = table(vec![
            Row {
                limit: None,
                value: 4.0,
                ..l1
            },
            Row {
                value: 6.0,
                ..width
            },
        ]);
        READINGS.set((vec![4.5, 3.5, 4.0, 3.9, 1.0], 0));
        t.remeasure(3, std::time::Duration::ZERO);
        assert_eq!([t.rows[0].value, t.rows[1].value], [3.5, 4.0]);
        assert_eq!(t.verdict(&t.rows[1]), "pass");
        assert_eq!(READINGS.with_borrow(|r| r.1), 4);
        // Under an `AtLeast` limit the higher reading is the better one.
        let mut t = table(vec![short]);
        READINGS.set((vec![8.0, 3.0], 0));
        t.remeasure(2, std::time::Duration::ZERO);
        assert_eq!(t.rows[0].value, 8.0);
    }

    #[test]
    fn json_is_one_escaped_object_per_row() {
        let spec = row("Grid1", "-", "spec MiB/s", 2.0);
        let mut t = table(vec![
            limited(
                row("Grid1", "-", "digest MiB/s", 3.0).against(&spec),
                Limit::AtLeast(1.5),
            ),
            spec,
        ]);
        t.rows[1].shape = "a \"quoted\"\nshape".into();
        t.rows[0].of = Some(t.rows[1].key());
        let json = t.to_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2, "{json}");
        assert_eq!(
            lines[0],
            "{\"target\":\"t\",\"kind\":\"Grid1\",\"engine\":\"-\",\"shape\":\"n\",\
             \"metric\":\"digest MiB/s\",\"value\":3,\"of_kind\":\"Grid1\",\"of_engine\":\"-\",\
             \"of_shape\":\"a \\\"quoted\\\"\\nshape\",\"of_metric\":\"spec MiB/s\",\
             \"ratio\":1.5,\"limit\":\">= 1.5\",\"verdict\":\"pass\"},"
        );
        assert!(
            lines[1].contains("\"shape\":\"a \\\"quoted\\\"\\nshape\""),
            "{json}"
        );
        assert!(lines[1].ends_with(
            "\"of_kind\":null,\"of_engine\":null,\"of_shape\":null,\"of_metric\":null,\
             \"ratio\":null,\"limit\":null,\"verdict\":\"-\"}"
        ));
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
