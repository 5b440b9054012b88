//! # tempora-bench — reproduction harness for the paper's evaluation
//!
//! One runner per table/figure of the evaluation section (§4), wired to
//! the `repro` binary:
//!
//! | id | artefact | runner |
//! |---|---|---|
//! | `table1` | Table 1 problem/blocking sizes | [`table1`] |
//! | `fig4a`/`fig4b` | Heat-1D sequential / parallel | [`fig4a`], [`fig4b`] |
//! | `fig4c`/`fig4d` | Heat-2D | [`fig4c`], [`fig4d`] |
//! | `fig4e`/`fig4f` | Heat-3D | [`fig4e`], [`fig4f`] |
//! | `fig4g`/`fig4h` | 2D9P | [`fig4g`], [`fig4h`] |
//! | `fig4i`/`fig4j` | Life | [`fig4i`], [`fig4j`] |
//! | `fig5a`/`fig5b` | GS-1D | [`fig5a`], [`fig5b`] |
//! | `fig5c`/`fig5d` | GS-2D | [`fig5c`], [`fig5d`] |
//! | `fig5e`/`fig5f` | GS-3D | [`fig5e`], [`fig5f`] |
//! | `fig5g`/`fig5h` | LCS | [`fig5g`], [`fig5h`] |
//! | `ablate-reorg` | §3.3/§3.5 reorganization budgets | [`ablate_reorg`] |
//! | `ablate-stride` | §3.3 stride/ILP sweep, all three 1-D kinds, default marked | [`ablate_stride`] |
//! | `ablate-baselines` | §2.2 baseline comparison | [`ablate_baselines`] |
//! | `ablate-waves` | pipelined vs barrier wavefront schedule | [`ablate_waves`] |
//! | `ablate-boundary` | bare steady state vs whole tile, per kind and engine | [`ablate_boundary`] |
//!
//! Every series runs through the unified solver API
//! (`tempora_plan::Plan`): the harness compiles one plan per
//! configuration — geometry validated, engine resolved, scratch and
//! thread pool allocated once — and times repeated `plan.run(&mut
//! state)` calls, exactly the serving pattern the plan API exists for.
//! Each dispatched ("our") series records the engine its plan resolved
//! to; the JSON baselines carry it as the per-series `"engine"` field.
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

use tempora_core::t1d;
use tempora_grid::{
    fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, random_sequence,
};
use tempora_plan::{Method, PlanBuilder, Problem, Select, State, Tiling};
use tempora_stencil::{
    Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
    LifeRule,
};

/// One measured curve: label + `(x, Gstencils/s)` points, with the
/// resolved engine and worker count recorded **per point** (a sweep can
/// legitimately resolve different engines at different sizes, e.g. a
/// degenerate small geometry falling back to portable — recording only
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

/// Time a closure once, in seconds — a single **cold** measurement.
/// Prefer [`time_stable`] for anything that lands in reported figures.
pub fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
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

/// Compile `builder` against `problem`, build and fill a state, then
/// measure repeated `plan.run(&mut state)` calls (warm-up + median of 3;
/// setup — validation, engine resolution, scratch and pool allocation —
/// happens once, outside the timed region, exactly as a serving system
/// would amortize it).
pub fn plan_sample(problem: &Problem, builder: PlanBuilder, fill: &dyn Fn(&mut State)) -> Sample {
    let mut plan = builder
        .build(problem)
        // Panic-justification: every harness configuration is hard-coded
        // against its problem; a build failure is a bench-suite bug.
        .expect("bench configurations are valid by construction");
    let mut state = problem.state();
    fill(&mut state);
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

/// The ablations' measurement: compile `builder` against `problem`, fill
/// a state, and return the fastest of 20 `plan.run` calls after one
/// warm-up, in seconds, with the engine the plan resolved (`portable` for
/// a plan that dispatches none). The minimum, not [`time_stable`]'s median
/// of 3: these targets compare code paths and gate on the ratio.
fn best_of_20(problem: &Problem, builder: PlanBuilder) -> (f64, &'static str) {
    let mut plan = builder
        .build(problem)
        // Panic-justification: every ablation configuration is hard-coded
        // against its problem; a build failure is a bench-suite bug.
        .expect("bench configurations are valid by construction");
    let mut state = problem.state();
    fill_state(&mut state);
    let mut best = f64::INFINITY;
    for rep in 0..=20 {
        let t = Instant::now();
        // Panic-justification: the state comes from `problem.state()`.
        plan.run(&mut state).expect("state matches plan");
        if rep > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
        std::hint::black_box(&state);
    }
    (best, plan.engine().map_or("portable", |e| e.name()))
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

/// Scaled parallel configurations `(size, steps, block, height)` per
/// benchmark (`height` = time-block depth of Table 1, clamped to the
/// scaled step count and rounded to the engine's vector length).
pub struct ParallelConfigs {
    /// Heat-1D `(n, steps, block, height)`.
    pub heat1d: (usize, usize, usize, usize),
    /// Heat-2D `(n, steps, block, height)`.
    pub heat2d: (usize, usize, usize, usize),
    /// 2D9P `(n, steps, block, height)`.
    pub box2d: (usize, usize, usize, usize),
    /// Heat-3D `(n, steps, block, height)`.
    pub heat3d: (usize, usize, usize, usize),
    /// Life `(n, steps, block, height)`.
    pub life: (usize, usize, usize, usize),
    /// GS-1D `(n, steps, block, height)`.
    pub gs1d: (usize, usize, usize, usize),
    /// GS-2D `(n, steps, block, height)`.
    pub gs2d: (usize, usize, usize, usize),
    /// GS-3D `(n, steps, block, height)`.
    pub gs3d: (usize, usize, usize, usize),
    /// LCS `(len, xblock, yblock)`.
    pub lcs: (usize, usize, usize),
}

/// Table-1 configurations divided by `scale` (linear dimensions), with
/// step counts shortened so runtimes stay laptop-sized.
pub fn parallel_configs(scale: usize) -> ParallelConfigs {
    let s = scale.max(1);
    let d = |v: usize, lo: usize| (v / s).max(lo);
    // Clamp a paper time-block height: ghost (Jacobi) tiles want a few
    // bands and a ghost width well below the block; skewed (GS) tiles
    // want a deep enough pipeline (>= 8 bands) for wavefront parallelism.
    let hj = |paper: usize, steps: usize, block: usize, vl: usize| {
        (paper.min(steps / 2).min(block / 4).max(vl) / vl) * vl
    };
    let hg = |paper: usize, steps: usize, block: usize, s_: usize, vl: usize| {
        let cap = block.saturating_sub(vl * s_ + vl); // wave disjointness
        (paper.min(steps / 8).min(cap).max(vl) / vl) * vl
    };
    let heat1d = (d(16_000_000, 4096), d(6000, 64).min(256), d(16384, 512));
    let heat2d = (d(8000, 128), d(2000, 32).min(64), d(256, 32));
    let heat3d = (d(800, 32), d(200, 16).min(32), d(32, 8));
    let life = (d(8000, 128), d(2000, 32).min(64), d(256, 32));
    let gs1d_n = d(16_000_000, 4096);
    let gs1d = (gs1d_n, d(6000, 64).min(256), (gs1d_n / 64).max(512));
    let gs2d_n = d(8000, 128);
    let gs2d = (gs2d_n, d(2000, 32).min(64), (gs2d_n / 4).max(32));
    let gs3d_n = d(800, 32);
    let gs3d = (gs3d_n, d(200, 16).min(32), (gs3d_n / 2).max(24));
    ParallelConfigs {
        heat1d: (heat1d.0, heat1d.1, heat1d.2, hj(128, heat1d.1, heat1d.2, 4)),
        heat2d: (heat2d.0, heat2d.1, heat2d.2, hj(64, heat2d.1, heat2d.2, 4)),
        box2d: (heat2d.0, heat2d.1, heat2d.2, hj(64, heat2d.1, heat2d.2, 4)),
        heat3d: (heat3d.0, heat3d.1, heat3d.2, hj(8, heat3d.1, heat3d.2, 4)),
        life: (life.0, life.1, life.2, hj(32, life.1, life.2, 8)),
        gs1d: (gs1d.0, gs1d.1, gs1d.2, hg(64, gs1d.1, gs1d.2, 7, 4)),
        gs2d: (gs2d.0, gs2d.1, gs2d.2, hg(32, gs2d.1 * 2, gs2d.2, 2, 4)),
        gs3d: (gs3d.0, gs3d.1, gs3d.2, hg(32, gs3d.1 * 2, gs3d.2, 2, 4)),
        lcs: (d(200_000, 2048), d(4096, 256), d(4096, 256)),
    }
}

/// Reproduce Table 1: benchmark names, paper problem/blocking sizes, and
/// the sizes this harness actually runs at the given `scale` divisor.
pub fn table1(scale: usize) -> String {
    let s = scale.max(1);
    let rows = [
        ("Heat-1D", "16000000 x 6000", "16384 x 128"),
        ("Heat-2D", "8000^2 x 2000", "256^2 x 64"),
        ("2D9P", "8000^2 x 2000", "256^2 x 64"),
        ("Heat-3D", "800^3 x 200", "32^3 x 8"),
        ("Life", "8000^2 x 2000", "256^2 x 32"),
        ("GS-1D", "16000000 x 6000", "2048 x 64"),
        ("GS-2D", "8000^2 x 2000", "128^2 x 32"),
        ("GS-3D", "800^3 x 200", "32^3 x 32"),
        ("LCS", "200000 x 200000", "4096 x 4096"),
    ];
    let p = parallel_configs(s);
    let scaled = [
        format!(
            "{} x {} / blk {}x{}",
            p.heat1d.0, p.heat1d.1, p.heat1d.2, p.heat1d.3
        ),
        format!(
            "{}^2 x {} / blk {}x{}",
            p.heat2d.0, p.heat2d.1, p.heat2d.2, p.heat2d.3
        ),
        format!(
            "{}^2 x {} / blk {}x{}",
            p.box2d.0, p.box2d.1, p.box2d.2, p.box2d.3
        ),
        format!(
            "{}^3 x {} / blk {}x{}",
            p.heat3d.0, p.heat3d.1, p.heat3d.2, p.heat3d.3
        ),
        format!(
            "{}^2 x {} / blk {}x{}",
            p.life.0, p.life.1, p.life.2, p.life.3
        ),
        format!(
            "{} x {} / blk {}x{}",
            p.gs1d.0, p.gs1d.1, p.gs1d.2, p.gs1d.3
        ),
        format!(
            "{}^2 x {} / blk {}x{}",
            p.gs2d.0, p.gs2d.1, p.gs2d.2, p.gs2d.3
        ),
        format!(
            "{}^3 x {} / blk {}x{}",
            p.gs3d.0, p.gs3d.1, p.gs3d.2, p.gs3d.3
        ),
        format!("{}^2 / blk {}^2", p.lcs.0, p.lcs.1),
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "# table1 — Problem and blocking sizes (paper vs this run, scale 1/{s})\n"
    ));
    out.push_str(&format!(
        "{:<10}{:>22}{:>16}{:>34}\n",
        "benchmark", "paper size", "paper block", "this run"
    ));
    for (i, (name, size, blockv)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{:<10}{:>22}{:>16}{:>34}\n",
            name, size, blockv, scaled[i]
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Sweep scaffolding
// ---------------------------------------------------------------------

fn pow2_sizes(lo_exp: u32, hi_exp: u32) -> Vec<usize> {
    (lo_exp..=hi_exp).map(|e| 1usize << e).collect()
}

/// Labelled `(n, steps) -> (Problem, PlanBuilder)` factory for one series
/// of a sequential sweep.
type SeqRun<'a> = (
    &'static str,
    Box<dyn Fn(usize, usize) -> (Problem, PlanBuilder) + 'a>,
);

// Justification: the parameter list mirrors the figure's sweep geometry; a params struct would obscure the harness call sites.
#[allow(clippy::too_many_arguments)]
fn seq_sweep<'a>(
    id: &str,
    title: &str,
    xlabel: &str,
    xs: &[usize],
    xmap: impl Fn(usize) -> f64,
    points_of: impl Fn(usize) -> usize,
    runs: Vec<SeqRun<'a>>,
    steps_hi: usize,
) -> Figure {
    let mut series: Vec<Series> = runs.iter().map(|(label, _)| Series::new(label)).collect();
    for &n in xs {
        let pts = points_of(n);
        let steps = choose_steps(pts, SEQ_BUDGET, 4, steps_hi);
        for (k, (_, run)) in runs.iter().enumerate() {
            let (problem, builder) = run(n, steps);
            let smp = plan_sample(&problem, builder, &fill_state);
            series[k].push(xmap(n), gstencils(pts, steps, smp.secs), 1, &smp);
        }
    }
    Figure {
        id: id.into(),
        title: title.into(),
        xlabel: xlabel.into(),
        series,
    }
}

fn core_counts(max_cores: usize) -> Vec<usize> {
    let mut v: Vec<usize> = vec![1];
    let mut c = 2;
    while c <= max_cores {
        v.push(c);
        c += if c < 4 { 1 } else { 4 };
    }
    v.dedup();
    v
}

/// Labelled `(cores) -> (Problem, PlanBuilder)` factory for one series of
/// a core-count sweep; the builder already carries the tiling, and the
/// sweep adds `.threads(cores)`.
type ParRun<'a> = (&'static str, Box<dyn Fn() -> (Problem, PlanBuilder) + 'a>);

fn parallel_sweep<'a>(
    id: &str,
    title: &str,
    max_cores: usize,
    pts: usize,
    steps: usize,
    runs: Vec<ParRun<'a>>,
) -> Figure {
    let mut series: Vec<Series> = runs.iter().map(|(label, _)| Series::new(label)).collect();
    for &cores in &core_counts(max_cores) {
        for (k, (_, run)) in runs.iter().enumerate() {
            let (problem, builder) = run();
            // plan_sample's built-in warm-up faults in pages and spins up
            // the plan's workers before the three timed runs. Workers are
            // pinned one-per-core (best-effort) so the core-count axis
            // means what it says, and the plan first-touches its tile
            // arenas from their owning workers.
            let smp = plan_sample(&problem, builder.threads(cores).pin(true), &fill_state);
            series[k].push(cores as f64, gstencils(pts, steps, smp.secs), cores, &smp);
        }
    }
    Figure {
        id: id.into(),
        title: title.into(),
        xlabel: "cores".into(),
        series,
    }
}

/// The three standard sequential builders: temporal ("our"), multi-load
/// ("auto"), scalar.
fn seq_builders(sel: Select, stride: usize) -> [(&'static str, PlanBuilder); 3] {
    [
        ("our", PlanBuilder::new().stride(stride).select(sel)),
        ("auto", PlanBuilder::new().method(Method::Multiload)),
        ("scalar", PlanBuilder::new().method(Method::Scalar)),
    ]
}

// ---------------------------------------------------------------------
// Sequential figures (left column of Figures 4 and 5)
// ---------------------------------------------------------------------

/// Figure 4a: Heat-1D sequential, Gstencils/s vs problem size (2^x).
pub fn fig4a(scale: usize) -> Figure {
    let hi = match scale {
        0..=1 => 23,
        2..=4 => 22,
        5..=16 => 20,
        _ => 18,
    };
    let c = Heat1dCoeffs::classic(0.25);
    let sel = Select::from_env();
    seq_sweep(
        "fig4a",
        "Heat-1D Sequential",
        "log2(N)",
        &pow2_sizes(7, hi),
        |n| (n as f64).log2(),
        |n| n,
        seq_builders(sel, 7)
            .into_iter()
            .map(|(label, b)| -> SeqRun<'_> {
                (
                    label,
                    Box::new(move |n, steps| (Problem::heat1d(n, steps, c), b)),
                )
            })
            .collect(),
        65536,
    )
}

/// Figure 4c: Heat-2D sequential.
pub fn fig4c(scale: usize) -> Figure {
    let cap = 8192 / scale.clamp(1, 8);
    let sizes: Vec<usize> = [128usize, 256, 512, 1024, 2048, 4096, 8192]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    let c = Heat2dCoeffs::classic(0.125);
    let sel = Select::from_env();
    seq_sweep(
        "fig4c",
        "Heat-2D Sequential",
        "N",
        &sizes,
        |n| n as f64,
        |n| n * n,
        seq_builders(sel, 2)
            .into_iter()
            .map(|(label, b)| -> SeqRun<'_> {
                (
                    label,
                    Box::new(move |n, steps| (Problem::heat2d(n, n, steps, c), b)),
                )
            })
            .collect(),
        2000,
    )
}

/// Figure 4e: Heat-3D sequential.
pub fn fig4e(scale: usize) -> Figure {
    let cap = match scale {
        0..=1 => 512,
        2..=4 => 256,
        _ => 128,
    };
    let sizes: Vec<usize> = [16usize, 32, 64, 128, 256, 512]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    let c = Heat3dCoeffs::classic(1.0 / 6.0);
    let sel = Select::from_env();
    seq_sweep(
        "fig4e",
        "Heat-3D Sequential",
        "N",
        &sizes,
        |n| n as f64,
        |n| n * n * n,
        seq_builders(sel, 2)
            .into_iter()
            .map(|(label, b)| -> SeqRun<'_> {
                (
                    label,
                    Box::new(move |n, steps| (Problem::heat3d(n, n, n, steps, c), b)),
                )
            })
            .collect(),
        512,
    )
}

/// Figure 4g: 2D9P sequential.
pub fn fig4g(scale: usize) -> Figure {
    let cap = 8192 / scale.clamp(1, 8);
    let sizes: Vec<usize> = [128usize, 256, 512, 1024, 2048, 4096, 8192]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    let c = Box2dCoeffs::smooth(0.1);
    let sel = Select::from_env();
    seq_sweep(
        "fig4g",
        "2D9P Sequential",
        "N",
        &sizes,
        |n| n as f64,
        |n| n * n,
        seq_builders(sel, 2)
            .into_iter()
            .map(|(label, b)| -> SeqRun<'_> {
                (
                    label,
                    Box::new(move |n, steps| (Problem::box2d(n, n, steps, c), b)),
                )
            })
            .collect(),
        2000,
    )
}

/// Figure 4i: Life sequential (integer 2D9P, 8 lanes).
pub fn fig4i(scale: usize) -> Figure {
    let cap = 8192 / scale.clamp(1, 8);
    let sizes: Vec<usize> = [128usize, 256, 512, 1024, 2048, 4096, 8192]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    let rule = LifeRule::b2s23();
    let sel = Select::from_env();
    seq_sweep(
        "fig4i",
        "Life Sequential",
        "N",
        &sizes,
        |n| n as f64,
        |n| n * n,
        seq_builders(sel, 2)
            .into_iter()
            .map(|(label, b)| -> SeqRun<'_> {
                (
                    label,
                    Box::new(move |n, steps| (Problem::life(n, n, steps, rule), b)),
                )
            })
            .collect(),
        2000,
    )
}

/// Figure 5a: GS-1D sequential (no "auto" — spatial vectorization of
/// Gauss-Seidel loops is illegal, and the plan API rejects it).
pub fn fig5a(scale: usize) -> Figure {
    let hi = match scale {
        0..=1 => 23,
        2..=4 => 22,
        5..=16 => 20,
        _ => 18,
    };
    let c = Gs1dCoeffs::classic(0.25);
    let sel = Select::from_env();
    let our = PlanBuilder::new().stride(7).select(sel);
    let scalar = PlanBuilder::new().method(Method::Scalar);
    seq_sweep(
        "fig5a",
        "GS-1D Sequential",
        "log2(N)",
        &pow2_sizes(7, hi),
        |n| (n as f64).log2(),
        |n| n,
        vec![
            (
                "our",
                Box::new(move |n, steps| (Problem::gs1d(n, steps, c), our)),
            ),
            (
                "scalar",
                Box::new(move |n, steps| (Problem::gs1d(n, steps, c), scalar)),
            ),
        ],
        65536,
    )
}

/// Figure 5c: GS-2D sequential.
pub fn fig5c(scale: usize) -> Figure {
    let cap = 8192 / scale.clamp(1, 8);
    let sizes: Vec<usize> = [128usize, 256, 512, 1024, 2048, 4096, 8192]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    let c = Gs2dCoeffs::classic(0.2);
    let sel = Select::from_env();
    let our = PlanBuilder::new().stride(2).select(sel);
    let scalar = PlanBuilder::new().method(Method::Scalar);
    seq_sweep(
        "fig5c",
        "GS-2D Sequential",
        "N",
        &sizes,
        |n| n as f64,
        |n| n * n,
        vec![
            (
                "our",
                Box::new(move |n, steps| (Problem::gs2d(n, n, steps, c), our)),
            ),
            (
                "scalar",
                Box::new(move |n, steps| (Problem::gs2d(n, n, steps, c), scalar)),
            ),
        ],
        2000,
    )
}

/// Figure 5e: GS-3D sequential.
pub fn fig5e(scale: usize) -> Figure {
    let cap = match scale {
        0..=1 => 512,
        2..=4 => 256,
        _ => 128,
    };
    let sizes: Vec<usize> = [16usize, 32, 64, 128, 256, 512]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    let c = Gs3dCoeffs::classic(0.125);
    let sel = Select::from_env();
    let our = PlanBuilder::new().stride(2).select(sel);
    let scalar = PlanBuilder::new().method(Method::Scalar);
    seq_sweep(
        "fig5e",
        "GS-3D Sequential",
        "N",
        &sizes,
        |n| n as f64,
        |n| n * n * n,
        vec![
            (
                "our",
                Box::new(move |n, steps| (Problem::gs3d(n, n, n, steps, c), our)),
            ),
            (
                "scalar",
                Box::new(move |n, steps| (Problem::gs3d(n, n, n, steps, c), scalar)),
            ),
        ],
        512,
    )
}

/// Figure 5g: LCS sequential (one full DP table; Gcells/s). The temporal
/// series is dispatched like every other figure: its plan resolves (and
/// reports) the engine — the `i32×8` AVX2 LCS steady state on AVX2
/// hosts, portable otherwise.
pub fn fig5g(scale: usize) -> Figure {
    let hi = match scale {
        0..=1 => 17,
        2..=4 => 16,
        _ => 14,
    };
    let sel = Select::from_env();
    let builders: [(&'static str, PlanBuilder); 2] = [
        ("our", PlanBuilder::new().stride(1).select(sel)),
        ("scalar", PlanBuilder::new().method(Method::Scalar)),
    ];
    let mut series: Vec<Series> = builders
        .iter()
        .map(|(label, _)| Series::new(label))
        .collect();
    // One run computes the whole n × n table, so the "step" count is n
    // DP rows — fixed by the problem, not by the point budget.
    for n in pow2_sizes(7, hi) {
        let problem = Problem::lcs(n, n);
        for (k, (_, builder)) in builders.iter().enumerate() {
            let smp = plan_sample(&problem, *builder, &fill_state);
            series[k].push((n as f64).log2(), gstencils(n, n, smp.secs), 1, &smp);
        }
    }
    Figure {
        id: "fig5g".into(),
        title: "LCS Sequential".into(),
        xlabel: "log2(N)".into(),
        series,
    }
}

// ---------------------------------------------------------------------
// Parallel figures (right column of Figures 4 and 5)
// ---------------------------------------------------------------------

/// Figure 4b: Heat-1D parallel scaling (ghost-zone temporal bands; each
/// plan owns its pool and in-tile engine resolution).
pub fn fig4b(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).heat1d;
    let c = Heat1dCoeffs::classic(0.25);
    let sel = Select::from_env();
    let ghost = Tiling::Ghost { block, height };
    let mk = move |method: Method, stride: usize| -> ParRun<'static> {
        let label = match method {
            Method::Temporal => "our",
            Method::Multiload => "auto",
            _ => "scalar",
        };
        (
            label,
            Box::new(move || {
                (
                    Problem::heat1d(n, steps, c),
                    PlanBuilder::new()
                        .method(method)
                        .tiling(ghost)
                        .stride(stride)
                        .select(sel),
                )
            }),
        )
    };
    parallel_sweep(
        "fig4b",
        "Heat-1D Parallel",
        max_cores,
        n,
        steps,
        vec![
            mk(Method::Temporal, 7),
            mk(Method::Multiload, 7),
            mk(Method::Scalar, 7),
        ],
    )
}

/// Shared scaffolding for the 2-D/3-D ghost-tiled parallel figures.
// Justification: the parameter list mirrors the figure's sweep geometry; a params struct would obscure the harness call sites.
#[allow(clippy::too_many_arguments)]
fn ghost_par_fig(
    id: &str,
    title: &str,
    max_cores: usize,
    pts: usize,
    steps: usize,
    problem: Problem,
    tiling: Tiling,
    with_auto: bool,
) -> Figure {
    let sel = Select::from_env();
    let mk = move |method: Method| -> ParRun<'static> {
        let label = match method {
            Method::Temporal => "our",
            Method::Multiload => "auto",
            _ => "scalar",
        };
        (
            label,
            Box::new(move || {
                (
                    problem,
                    PlanBuilder::new()
                        .method(method)
                        .tiling(tiling)
                        .stride(2)
                        .select(sel),
                )
            }),
        )
    };
    let mut runs = vec![mk(Method::Temporal)];
    if with_auto {
        runs.push(mk(Method::Multiload));
    }
    runs.push(mk(Method::Scalar));
    parallel_sweep(id, title, max_cores, pts, steps, runs)
}

/// Figure 4d: Heat-2D parallel scaling.
pub fn fig4d(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).heat2d;
    ghost_par_fig(
        "fig4d",
        "Heat-2D Parallel",
        max_cores,
        n * n,
        steps,
        Problem::heat2d(n, n, steps, Heat2dCoeffs::classic(0.125)),
        Tiling::Ghost { block, height },
        true,
    )
}

/// Figure 4f: Heat-3D parallel scaling.
pub fn fig4f(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).heat3d;
    ghost_par_fig(
        "fig4f",
        "Heat-3D Parallel",
        max_cores,
        n * n * n,
        steps,
        Problem::heat3d(n, n, n, steps, Heat3dCoeffs::classic(1.0 / 6.0)),
        Tiling::Ghost { block, height },
        true,
    )
}

/// Figure 4h: 2D9P parallel scaling.
pub fn fig4h(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).box2d;
    ghost_par_fig(
        "fig4h",
        "2D9P Parallel",
        max_cores,
        n * n,
        steps,
        Problem::box2d(n, n, steps, Box2dCoeffs::smooth(0.1)),
        Tiling::Ghost { block, height },
        true,
    )
}

/// Figure 4j: Life parallel scaling.
pub fn fig4j(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).life;
    ghost_par_fig(
        "fig4j",
        "Life Parallel",
        max_cores,
        n * n,
        steps,
        Problem::life(n, n, steps, LifeRule::b2s23()),
        Tiling::Ghost { block, height },
        true,
    )
}

/// Shared scaffolding for the skew-tiled Gauss-Seidel parallel figures.
// Justification: the parameter list mirrors the figure's sweep geometry; a params struct would obscure the harness call sites.
#[allow(clippy::too_many_arguments)]
fn skew_par_fig(
    id: &str,
    title: &str,
    max_cores: usize,
    pts: usize,
    steps: usize,
    problem: Problem,
    tiling: Tiling,
    stride: usize,
) -> Figure {
    let sel = Select::from_env();
    let mk = move |method: Method| -> ParRun<'static> {
        let label = if method == Method::Temporal {
            "our"
        } else {
            "scalar"
        };
        (
            label,
            Box::new(move || {
                (
                    problem,
                    PlanBuilder::new()
                        .method(method)
                        .tiling(tiling)
                        .stride(stride)
                        .select(sel),
                )
            }),
        )
    };
    parallel_sweep(
        id,
        title,
        max_cores,
        pts,
        steps,
        vec![mk(Method::Temporal), mk(Method::Scalar)],
    )
}

/// Figure 5b: GS-1D parallel scaling (pipelined parallelogram tiles).
pub fn fig5b(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).gs1d;
    skew_par_fig(
        "fig5b",
        "GS-1D Parallel",
        max_cores,
        n,
        steps,
        Problem::gs1d(n, steps, Gs1dCoeffs::classic(0.25)),
        Tiling::Skew { block, height },
        7,
    )
}

/// Figure 5d: GS-2D parallel scaling.
pub fn fig5d(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).gs2d;
    skew_par_fig(
        "fig5d",
        "GS-2D Parallel",
        max_cores,
        n * n,
        steps,
        Problem::gs2d(n, n, steps, Gs2dCoeffs::classic(0.2)),
        Tiling::Skew { block, height },
        2,
    )
}

/// Figure 5f: GS-3D parallel scaling.
pub fn fig5f(scale: usize, max_cores: usize) -> Figure {
    let (n, steps, block, height) = parallel_configs(scale).gs3d;
    skew_par_fig(
        "fig5f",
        "GS-3D Parallel",
        max_cores,
        n * n * n,
        steps,
        Problem::gs3d(n, n, n, steps, Gs3dCoeffs::classic(0.125)),
        Tiling::Skew { block, height },
        2,
    )
}

/// Figure 5h: LCS parallel scaling (rectangle tiles, wavefront). Routed
/// through the same plan dispatch as every other figure; the rectangle
/// workspace resolves the `i32×8` AVX2 steady state per block column on
/// AVX2 hosts.
pub fn fig5h(scale: usize, max_cores: usize) -> Figure {
    let (n, xb, yb) = parallel_configs(scale).lcs;
    let sel = Select::from_env();
    let tiling = Tiling::LcsRect {
        xblock: xb,
        yblock: yb,
    };
    let mk = move |method: Method| -> ParRun<'static> {
        let label = if method == Method::Temporal {
            "our"
        } else {
            "scalar"
        };
        (
            label,
            Box::new(move || {
                (
                    Problem::lcs(n, n),
                    PlanBuilder::new()
                        .method(method)
                        .tiling(tiling)
                        .stride(1)
                        .select(sel),
                )
            }),
        )
    };
    parallel_sweep(
        "fig5h",
        "LCS Parallel",
        max_cores,
        n,
        n,
        vec![mk(Method::Temporal), mk(Method::Scalar)],
    )
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// §3.3/§3.5 reorganization-instruction budgets, measured through plan
/// reports (`PlanBuilder::count_reorg`): the temporal scheme's constant
/// per-output-vector cost versus the data-reorganization baseline. The
/// batched-top variant keeps its direct counted engine call (it is an
/// engine ablation, not a plan method).
pub fn ablate_reorg() -> String {
    use tempora_core::kernels::JacobiKern1d;
    use tempora_simd::count;
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
    {
        // Batched top/bottom vectors: an engine-level ablation of the
        // same schedule, counted directly.
        let mut g = tempora_grid::Grid1::new(n, 1, tempora_grid::Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g, SEED, -1.0, 1.0);
        let sess = count::Session::start();
        let _ = t1d::run_batched_counted::<4, _>(&g, &JacobiKern1d(c), 4, 7);
        line("temporal, batched tops", sess.finish());
    }
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
    /// Workload kind (`heat1d` | `gs1d` | `lcs`).
    pub kind: &'static str,
    /// The space stride `s` of this row.
    pub stride: usize,
    /// Engine the plan resolved to (`avx2` | `portable`).
    pub engine: &'static str,
    /// Throughput, million point-updates per second (best of 20 runs).
    pub mupd_per_s: f64,
    /// True when a default-built plan of this kind runs this stride
    /// (`Plan::stride`).
    pub default: bool,
    /// True when the resolved engine keeps this stride's ring in
    /// registers (`t1d_avx2::REGISTER_STRIDES` /
    /// `lcs_avx2::REGISTER_STRIDES`; never on the portable engine).
    pub registers: bool,
}

/// The `ablate-stride` table: throughput per kind and stride, with the
/// default and the register-specialised strides marked.
#[derive(Clone, Debug)]
pub struct StrideTable {
    /// `(1-D points, LCS length)` of the swept geometry.
    pub geometry: (usize, usize),
    /// One row per kind and accepted stride, strides ascending per kind.
    pub rows: Vec<StrideRow>,
}

impl StrideTable {
    /// `row`'s throughput as a share of its kind's best row.
    pub fn vs_best(&self, row: &StrideRow) -> f64 {
        let best = self
            .rows
            .iter()
            .filter(|r| r.kind == row.kind)
            .map(|r| r.mupd_per_s)
            .fold(0.0, f64::max);
        row.mupd_per_s / best
    }

    /// Render as an aligned text table (`*` marks a kind's default
    /// stride, `r` a register-specialised one).
    pub fn to_table(&self) -> String {
        let (n1, nl) = self.geometry;
        let mut out = format!(
            "# ablate-stride — temporal stride sweep (1-D {n1} x 32 steps, LCS {nl}²; \
             * = default stride, r = ring in registers)\n\
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
        let (n1, nl) = self.geometry;
        format!(
            "{{\"id\":\"ablate-stride\",\"geometry\":[{n1},{nl}],\"rows\":[{}]}}",
            rows.join(",")
        )
    }

    /// The AVX2 rows at their kind's default stride that run below
    /// `floor` × the kind's best row — a default that no longer sits on
    /// the plateau, or a default stride whose register-ring instantiation
    /// was dropped (the rolled in-memory ring measures ≈ 0.45).
    pub fn avx2_defaults_under(&self, floor: f64) -> Vec<&StrideRow> {
        self.rows
            .iter()
            .filter(|r| r.default && r.engine == "avx2" && self.vs_best(r) < floor)
            .collect()
    }
}

/// §3.3 stride sweep: throughput of the three 1-D temporal engines as the
/// space stride `s` — and with it the number of in-flight input vectors —
/// varies, over every stride Heat-1D and GS-1D accept and `s = 1..=3` for
/// LCS, at the `ledger` benchmark's geometry (`scale` = 16; `scale` ≥ 256
/// gives its `--smoke` geometry).
pub fn ablate_stride(scale: usize) -> StrideTable {
    use tempora_core::engine::KernelSpace;
    use tempora_core::kernels::JacobiKern1d;
    use tempora_core::{lcs_avx2, t1d_avx2};
    let d = scale.max(1);
    let (n1, nl) = (((1usize << 20) / d).max(1 << 12), (16384 / d).max(256));
    let sel = Select::from_env();
    let grid_strides = JacobiKern1d::MIN_STRIDE..=JacobiKern1d::MAX_STRIDE;
    let kinds = [
        (
            "heat1d",
            Problem::heat1d(n1, 32, Heat1dCoeffs::classic(0.25)),
            grid_strides.clone(),
            t1d_avx2::REGISTER_STRIDES,
        ),
        (
            "gs1d",
            Problem::gs1d(n1, 32, Gs1dCoeffs::classic(0.25)),
            grid_strides,
            t1d_avx2::REGISTER_STRIDES,
        ),
        (
            "lcs",
            Problem::lcs(nl, nl),
            1..=3,
            lcs_avx2::REGISTER_STRIDES,
        ),
    ];
    let mut rows = vec![];
    for (kind, problem, strides, register_strides) in kinds {
        let default = PlanBuilder::new()
            .build(&problem)
            // Panic-justification: hard-coded, accepted configurations.
            .expect("bench configurations are valid by construction")
            .stride();
        for s in strides {
            let (best, engine) = best_of_20(&problem, PlanBuilder::new().stride(s).select(sel));
            rows.push(StrideRow {
                kind,
                stride: s,
                engine,
                mupd_per_s: (problem.points() * problem.steps()) as f64 / best / 1e6,
                default: s == default,
                registers: engine == "avx2" && register_strides.contains(&s),
            });
        }
    }
    StrideTable {
        geometry: (n1, nl),
        rows,
    }
}

/// §2.2 baseline comparison: all five sequential schemes on Heat-1D,
/// each as a plan method.
pub fn ablate_baselines(scale: usize) -> Figure {
    let hi = if scale <= 2 { 22 } else { 19 };
    let c = Heat1dCoeffs::classic(0.25);
    let sel = Select::from_env();
    let schemes: [(&'static str, PlanBuilder); 5] = [
        ("our", PlanBuilder::new().stride(7).select(sel)),
        ("multiload", PlanBuilder::new().method(Method::Multiload)),
        ("reorg", PlanBuilder::new().method(Method::Reorg)),
        ("dlt", PlanBuilder::new().method(Method::Dlt)),
        ("scalar", PlanBuilder::new().method(Method::Scalar)),
    ];
    seq_sweep(
        "ablate-baselines",
        "All vectorization schemes (Heat-1D sequential)",
        "log2(N)",
        &pow2_sizes(10, hi),
        |n| (n as f64).log2(),
        |n| n,
        schemes
            .into_iter()
            .map(|(label, b)| -> SeqRun<'_> {
                (
                    label,
                    Box::new(move |n, steps| (Problem::heat1d(n, steps, c), b)),
                )
            })
            .collect(),
        16384,
    )
}

/// Wavefront-schedule A/B: the dependence-counter pipelined schedule
/// versus the legacy barrier-per-anti-diagonal schedule on the skew-tiled
/// GS-2D workload, across core counts. Both schedules are bit-identical
/// (verified by the tiling test suite); this ablation measures only the
/// synchronization cost the barrier adds per wave.
pub fn ablate_waves(scale: usize, max_cores: usize) -> Figure {
    use tempora_plan::WaveSchedule;
    let (n, steps, block, height) = parallel_configs(scale).gs2d;
    let c = Gs2dCoeffs::classic(0.2);
    let sel = Select::from_env();
    let tiling = Tiling::Skew { block, height };
    let mk = move |label: &'static str, schedule: WaveSchedule| -> ParRun<'static> {
        (
            label,
            Box::new(move || {
                (
                    Problem::gs2d(n, n, steps, c),
                    PlanBuilder::new()
                        .stride(2)
                        .select(sel)
                        .tiling(tiling)
                        .wave_schedule(schedule),
                )
            }),
        )
    };
    parallel_sweep(
        "ablate-waves",
        "Wavefront schedule A/B (GS-2D, pipelined vs barrier)",
        max_cores,
        n * n,
        steps,
        vec![
            mk("pipelined", WaveSchedule::Pipelined),
            mk("barrier", WaveSchedule::Barrier),
        ],
    )
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

    /// The AVX2 rows whose boundary/steady ratio exceeds `limit` — the
    /// silent failure this target exists to catch: a boundary phase that
    /// is no longer inlined into its `#[target_feature]` sandwich runs
    /// its `mul_add`s through libm again and the ratio jumps to ≈ 20.
    pub fn avx2_rows_over(&self, limit: f64) -> Vec<&BoundaryRow> {
        self.rows
            .iter()
            // A non-finite ratio (noise drove the fitted slope to ≤ 0) is
            // not evidence of a regression.
            .filter(|r| r.engine == "avx2" && r.ratio().is_finite() && r.ratio() > limit)
            .collect()
    }
}

/// Where the time goes in a tile (ROADMAP aim 1: "bare steady state vs
/// whole tile"). Per 2-D/3-D grid kind and engine, time `Plan::run` at
/// the `ledger` benchmark's geometry (`scale` = 16; `scale` ≥ 64 gives
/// its `--smoke` geometry) and at 10× the outer extent, minimum of 20
/// runs each. A tile's time is linear in its steady-state slab count
/// `x_max = nx + 1 - VL·s`, so the two points give the steady cost per
/// slab (the slope) and the fixed boundary cost per tile (the intercept
/// at `x_max = 0`); dividing by the point-updates each part performs
/// (`VL·inner` per slab; `VL·inner·(VL·s - 1)` in the boundary) states
/// both per update. A share within ± 0.03 of zero is below what two
/// timings resolve. Rows are produced for `Select::Avx2` (when the CPU
/// has AVX2+FMA) and `Select::Portable`. The 1-D kinds are left out:
/// their boundary is 27 points per level of a 65536-point tile, which
/// this method cannot see.
pub fn ablate_boundary(scale: usize) -> BoundaryTable {
    /// One kind: lane count, inner points per slab, outer extent of the
    /// base geometry, and the problem at outer extent `nx` (the ledger's
    /// step counts, whole tiles each).
    struct Kind {
        name: &'static str,
        vl: usize,
        inner: usize,
        nx: usize,
        problem: Box<dyn Fn(usize) -> Problem>,
    }
    const S: usize = 2; // the 2-D/3-D default stride
    let d = scale.max(1);
    let (n2, n3) = ((4096 / d).max(64), (640 / d).max(16));
    let kind2 = |name, vl, problem: fn(usize, usize) -> Problem| Kind {
        name,
        vl,
        inner: n2,
        nx: n2,
        problem: Box::new(move |nx| problem(nx, n2)),
    };
    let kind3 = |name, problem: fn(usize, usize) -> Problem| Kind {
        name,
        vl: 4,
        inner: n3 * n3,
        nx: n3,
        problem: Box::new(move |nx| problem(nx, n3)),
    };
    let kinds = [
        kind2("heat2d", 4, |nx, n| {
            Problem::heat2d(nx, n, 12, Heat2dCoeffs::classic(0.125))
        }),
        kind2("box2d", 4, |nx, n| {
            Problem::box2d(nx, n, 8, Box2dCoeffs::smooth(0.1))
        }),
        kind2("life", 8, |nx, n| {
            Problem::life(nx, n, 16, LifeRule::b2s23())
        }),
        kind2("gs2d", 4, |nx, n| {
            Problem::gs2d(nx, n, 8, Gs2dCoeffs::classic(0.2))
        }),
        kind3("heat3d", |nx, n| {
            Problem::heat3d(nx, n, n, 4, Heat3dCoeffs::classic(0.1))
        }),
        kind3("gs3d", |nx, n| {
            Problem::gs3d(nx, n, n, 4, Gs3dCoeffs::classic(0.1))
        }),
    ];
    let mut selects = vec![Select::Portable];
    if tempora_simd::arch::avx2_available() {
        selects.insert(0, Select::Avx2);
    }
    // Seconds per tile and the resolved engine.
    let tile_secs = |problem: &Problem, vl: usize, sel: Select| {
        let (best, engine) = best_of_20(problem, PlanBuilder::new().stride(S).select(sel));
        (best / (problem.steps() / vl) as f64, engine)
    };
    let mut rows = vec![];
    for &sel in &selects {
        for k in &kinds {
            let (t1, engine) = tile_secs(&(k.problem)(k.nx), k.vl, sel);
            let (t10, _) = tile_secs(&(k.problem)(10 * k.nx), k.vl, sel);
            let x_max = (k.nx + 1 - k.vl * S) as f64;
            let per_slab = (t10 - t1) / (9 * k.nx) as f64;
            let boundary = t1 - per_slab * x_max;
            let updates_per_slab = (k.vl * k.inner) as f64;
            rows.push(BoundaryRow {
                kind: k.name,
                engine,
                tile_us: t1 * 1e6,
                boundary_us: boundary * 1e6,
                steady_ns_per_update: per_slab * 1e9 / updates_per_slab,
                boundary_ns_per_update: boundary * 1e9 / (updates_per_slab * (k.vl * S - 1) as f64),
            });
        }
    }
    BoundaryTable {
        geometry: (n2, n3),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let our = plan_sample(&problem, PlanBuilder::new().stride(7), &fill_state);
        assert!(our.engine.is_some());
        let scalar = plan_sample(
            &problem,
            PlanBuilder::new().method(Method::Scalar),
            &fill_state,
        );
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
        let seq = plan_sample(&problem, PlanBuilder::new().stride(1), &fill_state);
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
            &fill_state,
        );
        assert_eq!(par.engine, expect);
        // Forced portable stays portable.
        let forced = plan_sample(
            &problem,
            PlanBuilder::new().stride(1).select(Select::Portable),
            &fill_state,
        );
        assert_eq!(forced.engine, Some("portable"));
    }

    #[test]
    fn parallel_configs_scale_down() {
        let p1 = parallel_configs(1);
        let p16 = parallel_configs(16);
        assert!(p16.heat1d.0 < p1.heat1d.0);
        assert!(p16.lcs.0 < p1.lcs.0);
        assert!(p16.heat2d.0 >= 128);
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
