//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--scale K] [--cores N] [--csv DIR] [--json FILE] <target>...
//!
//! targets: table1, fig4a..fig4j, fig5a..fig5h (the sequential and parallel
//!          figure of each Table-1 row; every "our" series runs the plan's
//!          default stride),
//!          ablate-reorg, ablate-baselines,
//!          ablate-stride, ablate-boundary, ablate-tiling, ablate-digest,
//!          ablate-rows, ablate-vl: one row per measurement (kind, engine,
//!          shape, metric, value; vs = its ratio to the row it is stated
//!          against; limit; verdict), and the target fails on a row over
//!          its limit (re-measured first: boundary 5 times, rows 10) —
//!            stride    a default (*) >= 0.7x its kind's best stride; under
//!                      auto on AVX2, each stride on its default's
//!                      engine, never portable
//!            boundary  boundary ns/u <= 12x the steady one (GS: 7x)
//!            tiling    tiled one thread <= 1.25x untiled (two cores)
//!            digest    served Grid1 >= 1.5x the one-chain spec, and its
//!                      seeded fill >= 3x the fill's one-chain spec
//!            rows      c/v <= [L1, ledger] limit x port bound per AVX2
//!                      kind and eight-lane GS-2D; width <= 1.15x L1
//!            vl        eight-lane default >= 1.4x (GS-1D), 1.1x (Heat-1D)
//!                      the four-lane one; auto's engine for each ledger
//!                      problem; around a crossover, auto's width >= 0.8x
//!                      the other (any --scale)
//!          portable rows are exempt from numeric limits; a ratio still
//!          non-finite after the retries is "unresolved" and passes; a
//!          host that runs gated rows fails a table with none,
//!          seq (all sequential), par (all parallel), ablate, all
//! --scale K   divide the paper's problem sizes by K (default 16;
//!             --scale 1 = paper sizes, needs a big machine)
//! --cores N   max worker count for parallel figures (default: all;
//!             clamped to the logical cores actually available and to
//!             the plan bound tempora_plan::MAX_THREADS)
//! --csv DIR   additionally write each figure as DIR/<id>.csv
//! --json FILE additionally write all figures, one object per ablation
//!             row, + machine metadata as one JSON document (schema
//!             tempora-bench-v2; old baselines: bench/history/)
//! ```
//!
//! A target that fails (panics, or cannot write its CSV) does not abort
//! the sweep: the error is reported, recorded as `{"id", "error"}` in the
//! JSON document, and the remaining targets still run; the process exits
//! non-zero with a summary of the failed targets at the end.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tempora_bench as tb;
use tempora_bench::Limit;

fn machine_banner(avail: usize) -> String {
    format!(
        "machine: {} logical cores, avx2+fma: {}, pinning: {}, engine: {} (TEMPORA_ENGINE)\n",
        avail,
        tempora_simd::arch::avx2_available(),
        tempora_parallel::Pool::pinning_supported(),
        tempora_core::engine::Select::from_env().name(),
    )
}

/// Malformed command line: print the problem to stderr and exit 2 (a
/// usage error, not a panic with a backtrace).
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg} (see repro --help)");
    std::process::exit(2);
}

/// Parse the value of a `--flag N` pair as a positive integer, exiting
/// with a usage error on anything else.
fn parse_count(flag: &str, value: Option<String>) -> usize {
    let Some(v) = value else {
        usage_error(&format!("{flag} needs a positive integer"));
    };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("{flag} needs a positive integer, got '{v}'")),
    }
}

/// The targets that are not a Table-1 row's figure, in `all` order.
const ABLATIONS: [&str; 8] = [
    "ablate-reorg",
    "ablate-stride",
    "ablate-baselines",
    "ablate-boundary",
    "ablate-tiling",
    "ablate-digest",
    "ablate-rows",
    "ablate-vl",
];

/// The sequential or the parallel figure ids of Table 1, in figure order.
fn figure_ids(parallel: bool) -> Vec<&'static str> {
    let mut ids: Vec<&str> = tb::BENCHMARKS
        .iter()
        .map(|row| if parallel { row.par_id } else { row.seq_id })
        .collect();
    ids.sort_unstable();
    ids
}

/// Every target, in the order `all` runs them.
fn all_targets() -> Vec<&'static str> {
    [
        vec!["table1"],
        figure_ids(false),
        figure_ids(true),
        ABLATIONS.to_vec(),
    ]
    .concat()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut scale = 16usize;
    let mut cores_requested = avail;
    let mut csv_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut targets: Vec<String> = vec![];

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = parse_count("--scale", it.next()),
            "--cores" => cores_requested = parse_count("--cores", it.next()),
            "--csv" => csv_dir = it.next().or_else(|| usage_error("--csv needs a directory")),
            "--json" => json_path = it.next().or_else(|| usage_error("--json needs a path")),
            "--help" | "-h" => {
                // Print the usage block between the doc comment's two
                // ```text fences, so the help text tracks doc edits
                // without hand-maintained line numbers.
                let doc = include_str!("repro.rs").lines().map(|l| {
                    l.strip_prefix("//! ")
                        .unwrap_or(l.trim_start_matches("//!"))
                });
                let fence = |l: &&str| l.starts_with("```");
                let block = doc.skip_while(|l| !fence(l)).skip(1);
                let usage: Vec<&str> = block.take_while(|l| !fence(l)).collect();
                println!("{}", usage.join("\n"));
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }

    // Oversubscribing a 1-core host with `--cores 8` would print a
    // "scaling" curve where every point ran the same hardware — clamp to
    // what the machine actually has, and to what a plan may run, loudly.
    let bound = avail.min(tempora_plan::MAX_THREADS);
    let cores = cores_requested.min(bound);
    if cores < cores_requested {
        eprintln!(
            "repro: --cores {cores_requested} exceeds the {avail} available logical cores \
             or the plan bound of {} threads; clamping to {cores}",
            tempora_plan::MAX_THREADS
        );
    }

    let mut expanded: Vec<String> = vec![];
    for t in &targets {
        let group: Vec<&str> = match t.as_str() {
            "all" => all_targets(),
            "seq" => figure_ids(false),
            "par" => figure_ids(true),
            "ablate" => ABLATIONS.to_vec(),
            other => vec![other],
        };
        expanded.extend(group.into_iter().map(String::from));
    }

    print!("{}", machine_banner(avail));
    println!("scale: 1/{scale}, max cores: {cores} (requested {cores_requested})\n");

    // Reject unknown targets up front (usage error, exit 2) so a typo is
    // not reported as a "failed figure" at the end of a long sweep.
    let known = all_targets();
    if let Some(id) = expanded.iter().find(|id| !known.contains(&id.as_str())) {
        usage_error(&format!("unknown target: {id}"));
    }

    // One JSON entry per target, success or failure, in sweep order.
    let mut fig_docs: Vec<String> = vec![];
    let mut failed: Vec<(String, String)> = vec![];
    for id in &expanded {
        // Containment boundary: a panicking figure (a bug in one bench
        // path, an injected failpoint, a poisoned plan) must not take the
        // rest of the sweep down with it.
        let result = catch_unwind(AssertUnwindSafe(|| run_target(id, scale, cores)));
        match result {
            Ok(Output::Figure(fig)) => {
                let mut err = None;
                if let Some(dir) = &csv_dir {
                    let path = format!("{dir}/{}.csv", fig.id);
                    if let Err(e) = std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, fig.to_csv()))
                    {
                        err = Some(format!("writing {path}: {e}"));
                    }
                }
                fig_docs.push(fig.to_json());
                if let Some(err) = err {
                    record_failure(&mut failed, id, err);
                }
            }
            Ok(Output::Text) => {} // text-only target, nothing to record
            Ok(Output::Checked { json, violation }) => {
                fig_docs.push(json);
                if let Some(msg) = violation {
                    record_failure(&mut failed, id, msg);
                }
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                fig_docs.push(format!(
                    "{{\"id\":\"{}\",\"error\":\"{}\"}}",
                    tb::json_escape(id),
                    tb::json_escape(&msg)
                ));
                record_failure(&mut failed, id, msg);
            }
        }
    }

    if let Some(path) = &json_path {
        let doc = format!(
            "{{\"schema\":\"tempora-bench-v2\",\"cores\":{},\"cores_requested\":{},\"cores_effective\":{},\"pinning_supported\":{},\"avx2\":{},\"engine_select\":\"{}\",\"scale\":{},\"figures\":[\n{}\n]}}\n",
            cores,
            cores_requested,
            cores,
            tempora_parallel::Pool::pinning_supported(),
            tempora_simd::arch::avx2_available(),
            tempora_core::engine::Select::from_env().name(),
            scale,
            fig_docs.join(",\n")
        );
        match std::fs::write(path, doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => record_failure(&mut failed, path, format!("writing JSON: {e}")),
        }
    }

    if !failed.is_empty() {
        eprintln!("\nrepro: {} target(s) failed:", failed.len());
        for (id, msg) in &failed {
            eprintln!("  {id}: {msg}");
        }
        std::process::exit(1);
    }
}

/// Report one target's failure on stderr and remember it for the final
/// summary (and exit code).
fn record_failure(failed: &mut Vec<(String, String)>, id: &str, msg: String) {
    eprintln!("repro: {id} failed: {msg}");
    failed.push((id.to_string(), msg));
}

/// Render a caught panic payload as the failure message for a figure.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// What one target produced, besides the table it printed.
enum Output {
    /// A text-only target.
    Text,
    /// A figure for the JSON document (and `--csv`).
    Figure(tb::Figure),
    /// JSON entries of its own (one per row) plus the target's verdict on
    /// them: `Some` fails the target (reported like any other failed
    /// target).
    Checked {
        json: String,
        violation: Option<String>,
    },
}

/// A boundary point-update may cost at most this many steady-state ones
/// in an AVX2 or AVX-512 tile (measured ≈ 4-6 once the boundary phases are
/// compiled for AVX2+FMA, ≈ 20 when they call libm `fma`). Gauss-Seidel's
/// boundary rows run four chains at a time, and their limit is lower: at
/// `--scale 512` they read 3.7–4.9, and an outlier once 11.4, which is
/// what the retries are for. With one chain per row they read 4.3–8.8
/// there (the steady rows were slower too) and up to 13.8 at the ledger's
/// 256², so this limit does not tell one chain from four at CI's scale:
/// it catches a boundary phase gone to libm or to bounds checks sooner.
/// The 1-D sweep's masked ends run `(2·VL-1)·s` vector iterations for
/// `VL·s` boundary cells a level, so their ratio is about twice a masked
/// iteration's cost over a steady one's, plus a tile's fixed cost (its
/// task in the wavefront included): at `--scale 512` on the 2-vCPU
/// AVX-512 host they read Heat-1D 3.9–7.8, GS-1D 5.0–6.3 and LCS (the
/// Jacobi limit: its update has no FMA chain) 6.2–9.9, the scalar
/// triangles they replaced 8.5–9.9, 7.3–13.3 and 14–31.
/// `[Jacobi, Gauss-Seidel]`.
const BOUNDARY_RATIO_LIMIT: [f64; 2] = [12.0, 7.0];

/// Times `ablate-boundary` measures the rows over their limit again,
/// keeping the lower ratio, before it believes them.
const BOUNDARY_RETRIES: usize = 5;

/// An AVX2 kind's default stride must reach this share of its best
/// stride's throughput (measured: the chosen defaults 0.94–1.00, the rolled
/// in-memory ring they would fall back to ≈ 0.45).
const DEFAULT_STRIDE_FLOOR: f64 = 0.7;

/// A tiled plan may take at most this many times its untiled time on one
/// thread (measured 1.0–1.1 with sweeps chunked in place; the copying
/// tilings this replaced measured 1.3–2.2).
const TILING_OVERHEAD_LIMIT: f64 = 1.25;

/// `state_digest` must run at least this many times as fast as its
/// definition folded as one chain, on the served 4096-point `Grid1`.
/// Lanes the compiler serialised read 1.00 and two surviving chains
/// 1.9–2.0; the four read 3.1–3.9 on a quiet host, 2.3–2.8 while the
/// sibling hyperthread is busy (the `f64` fold is then bound by its six
/// µops a word, the single chain still by its latency) and once 1.84 in
/// sixty runs, so the floor sits well under the quiet-host 3.
const DIGEST_LANES_FLOOR: f64 = 1.5;

/// `fresh_state`'s seeded fill must run at least this many times as fast
/// as its one-chain spec (`fresh_state_spec`), on the served 4096-point
/// `Grid1`, wherever it runs in a vector sandwich. Derived from 36 runs on
/// the 2-vCPU AVX-512 host: inside `Zmm::run` 24 quiet runs read
/// 5.73–9.36 (median 6.3) and 12 with the other vCPU running a second
/// `repro` 6.33–8.78; inside `Ymm::run` (forced) 3.56–4.37. Mutated on a
/// copy: the fill collapsed to one chain read 0.78–1.05, its body compiled
/// for baseline x86-64 (the `Zmm` closure without `#[inline(always)]`)
/// 1.36–2.04, and the baseline instantiation 1.73–1.99 — the floor sits
/// between those and the lowest `Ymm` reading.
const FILL_LANES_FLOOR: f64 = 3.0;

/// A slab row may take at most `[L1, ledger]` times its port bound, in
/// cycles per vector, with its ring in L1 and at the ledger geometry; a
/// row given no limit (the portable rows, the eight-lane Jacobi ones) is
/// not checked. Measured on the 6-wide host these were chosen on, L1
/// first: the AVX2 cursor rows 1.2–1.4 (Heat-2D), 1.25–1.45 (2D9P),
/// 1.55–1.65 (Life), 1.3–1.6 (Heat-3D, whose 40-vector rows pay their
/// cutting once per row); the indexed rows they replaced, with their four
/// to eight bounds checks per vector, 1.8–2.0, 2.0–2.4, 2.3–2.6 and
/// 1.8–2.0. At the ledger geometry the Jacobi rows read 1.3–1.65, Heat-3D
/// 1.95 (its 40³ ring comes from L2). The Gauss-Seidel pairs' bound is
/// half their one-row chain per vector: at L1 they read 1.22–1.26 (AVX2
/// GS-2D and GS-3D) and 1.5–1.9 (eight-lane GS-2D), their rows run one at
/// a time 2.0, 1.6–2.0 and 1.9; at the ledger geometry 1.4–1.65 and 1.73
/// against 2.1, 1.7–2.3 and 1.96. The eight-lane GS-2D pair's bound fell
/// from 4.5 (ports) to 4.0 (its chain) when its rotate-with-insert became
/// one `vpermt2pd`; it reads the same 7–9.5 cycles, 1.75–2.4× the new
/// bound, and fails these limits.
fn steady_row_limit(engine: &str, kind: &str) -> Option<[f64; 2]> {
    match (engine, kind) {
        ("avx2", "heat2d") => Some([1.65, 2.0]),
        ("avx2", "heat3d") => Some([1.85, 2.6]),
        ("avx2", "box2d") => Some([1.75, 2.0]),
        ("avx2", "life") => Some([1.95, 2.1]),
        ("avx2", "gs2d") => Some([1.6, 1.9]),
        ("avx2", "gs3d") => Some([1.45, 2.0]),
        ("avx512", "gs2d") => Some([1.75, 2.1]),
        _ => None,
    }
}

/// The eight-lane default of each 1-D kind must reach this many times the
/// four-lane default's throughput on an AVX-512 host (measured: GS-1D
/// 2.0–2.1, whose one-`vfmadd` output chain is what doubling the lanes
/// doubles; Heat-1D 2.0–2.3, bound by its ports rather than a chain, and
/// 1.25–1.45 while its rotate-with-insert took three port-5 µops).
fn vl_gain_floor(kind: &str) -> f64 {
    match kind {
        "gs1d" => 1.4,
        _ => 1.1, // heat1d
    }
}

/// How much slower than the other width the one `auto` picks may run on
/// a shape row of `ablate-vl` before the crossover counts as wrong. The
/// rows next to a crossover read 0.92–1.07, and another microarchitecture
/// moves it; a rule off by a factor — eight lanes from `nx ≥ 8s` on,
/// 0.51–0.94 for Heat-1D at 128–1024 points — is what this catches.
const VL_SHAPE_MARGIN: f64 = 1.25;

/// A Heat-2D row of `ablate-rows`' column sweep, out to 1024 columns, may
/// take at most this many times the cycles per vector of its engine's row
/// with the ring in L1. Without segments the whole-row ring leaves L1 from
/// 320 columns on at four lanes and the rows read 1.4–2.0; cut into
/// segments they read 0.95–1.1.
const WIDTH_LIMIT: f64 = 1.15;

/// Times `ablate-rows` measures the rows over their limit again, 0.3 s
/// apart and keeping the lower readings, before it believes them: a busy
/// sibling hyperthread takes up to half the FMA issue slots for a
/// fraction of a second at a time (a ten-stream `vfmadd` loop on the host
/// these limits were chosen on read 1.1–2.0 per cycle from one quarter
/// second to the next), and a reading is twenty runs a millisecond apart.
const STEADY_ROW_RETRIES: usize = 10;

/// The numeric limit of a row of an `ablate-*` target, from the constants
/// above: a stride row marked default (`*`), a boundary
/// point-update's cost over a steady one's, a tiled one-thread run over the
/// untiled one where a second core can run the pool, the served `Grid1`'s
/// digest and seeded fill over their one-chain specs, a steady row's
/// cycles per vector over its port bound (`L1`, `ledger`) or over its
/// engine's L1 reading (`width`), and on `ablate-vl` a kind's eight-lane
/// default plan over its four-lane one or, around a crossover, the width
/// `auto` takes over the other. The engine limits — what `auto` must resolve — are set where
/// they are measured, in `tempora_bench` (`ablate_stride`, `ablate_vl`);
/// a row holds one limit, and only `ablate-stride`'s default rows get
/// both: [`checked`] gives such a row this one when it ran on its engine.
fn limit(row: &tb::Row, cores: usize) -> Option<Limit> {
    use Limit::{AtLeast, AtMost};
    let (gs, stated) = (row.kind.starts_with("gs") as usize, row.of.is_some());
    Some(match (row.target, row.metric) {
        ("ablate-stride", _) if row.shape.contains('*') => AtLeast(DEFAULT_STRIDE_FLOOR),
        // GS-1D's rows take the Gauss-Seidel limit; Heat-1D's and LCS's
        // the Jacobi one.
        ("ablate-boundary", "boundary ns/u") => AtMost(BOUNDARY_RATIO_LIMIT[gs]),
        ("ablate-tiling", "tiled-1t µs") if cores >= 2 => AtMost(TILING_OVERHEAD_LIMIT),
        ("ablate-digest", "digest MiB/s") if row.kind == "Grid1" => AtLeast(DIGEST_LANES_FLOOR),
        ("ablate-digest", "fill MiB/s") if row.kind == "Grid1" => AtLeast(FILL_LANES_FLOOR),
        ("ablate-rows", "c/v") if row.shape.starts_with("width") => AtMost(WIDTH_LIMIT),
        ("ablate-rows", "c/v") if stated => {
            let ledger = row.shape.starts_with("ledger") as usize;
            AtMost(steady_row_limit(row.engine, row.kind)?[ledger])
        }
        ("ablate-vl", _) if row.shape == "default plans" && stated => {
            AtLeast(vl_gain_floor(row.kind))
        }
        // The width formula's prediction is reported, not gated.
        ("ablate-vl", _) if row.engine == "model" => return None,
        ("ablate-vl", _) if stated => AtLeast(1.0 / VL_SHAPE_MARGIN),
        _ => return None,
    })
}

/// Gate an `ablate-*` table: give its rows their [`limit`], measure the
/// rows over it again (`retries` rounds `pause` ms apart), print it and
/// fail the target on the rows still over, with `question` as the hint.
/// `gates_here`: this host runs rows the target limits, so a table with
/// no gated row fails too — a row renamed past [`limit`] is not a pass.
fn checked(
    mut table: tb::Table,
    cores: usize,
    (retries, pause): (usize, u64),
    gates_here: bool,
    question: &str,
) -> Output {
    for r in &mut table.rows {
        // A row off the engine `tempora_bench` limits it to keeps that
        // limit: the wrong engine is the finding.
        let off_engine = matches!(r.limit, Some(Limit::Engine(e)) if r.engine != e);
        if let Some(l) = limit(r, cores).filter(|_| !off_engine) {
            r.limit = Some(l);
        }
    }
    table.remeasure(retries, std::time::Duration::from_millis(pause));
    println!("{}", table.to_table());
    let mut over = table.violations();
    let gated = |r: &tb::Row| !matches!(table.verdict(r), "-" | "exempt");
    if !table.rows.iter().any(gated) {
        if gates_here {
            over.push("no row is gated (did a shape or metric move past `fn limit`?)".into());
        } else {
            println!(
                "notice: no row is checked here (no AVX2+FMA or avx512, one core, or portable)\n"
            );
        }
    }
    Output::Checked {
        json: table.to_json(),
        violation: (!over.is_empty()).then(|| format!("{} — {question}", over.join("; "))),
    }
}

/// Run one target: print its table (or text block) to stdout and return
/// what it produced.
fn run_target(id: &str, scale: usize, cores: usize) -> Output {
    use tempora_core::engine::Select;
    let avx2 = tempora_simd::arch::avx2_available();
    // `auto`'s plans, as opposed to the engines the ablations force.
    let simd = avx2 && Select::from_env() != Select::Portable;
    match id {
        "table1" => {
            println!("{}", tb::table1(scale));
            Output::Text
        }
        "ablate-reorg" => {
            println!("{}", tb::ablate_reorg());
            Output::Text
        }
        "ablate-stride" => checked(
            tb::ablate_stride(scale),
            cores,
            (0, 0),
            simd,
            "is the default stride still one the steady state specialises, and still on the \
             plateau; does a kernel's AVX2 sweep refuse a stride its plan accepts?",
        ),
        "ablate-boundary" => checked(
            tb::ablate_boundary(scale),
            cores,
            (BOUNDARY_RETRIES, 0),
            avx2,
            "are the boundary phases still inlined into their target_feature sandwich, and \
             the Gauss-Seidel rows still run four chains at a time?",
        ),
        "ablate-tiling" => checked(
            tb::ablate_tiling(scale, cores),
            cores,
            (0, 0),
            simd && cores >= 2,
            "is a tiled run still nothing but the one-chunk sweeps, cut?",
        ),
        "ablate-digest" => checked(
            tb::ablate_digest(),
            cores,
            (0, 0),
            true,
            "are the digest's lanes, and the seeded fill's streams, still independent chains \
             compiled inside their sandwich?",
        ),
        "ablate-rows" => checked(
            tb::ablate_rows(),
            cores,
            (STEADY_ROW_RETRIES, 300),
            avx2,
            "does a steady loop carry bounds checks or stack reloads again, or run its \
             Gauss-Seidel rows one at a time (objdump recipe: .claude/skills/verify/SKILL.md); \
             does the steady state still cut wide rows into segments that keep the ring in L1 \
             (slab::segment_width)?",
        ),
        "ablate-vl" => checked(
            tb::ablate_vl(),
            cores,
            (0, 0),
            tempora_simd::arch::avx512_available(),
            "is the Zmm sandwich still free of calls, its ring in registers; do the width \
             formula's costs (KernelSpace::COST, lcs::COST) still predict this host, so that \
             the model rows read near 1?",
        ),
        "ablate-baselines" => print_figure(tb::ablate_baselines(scale)),
        _ => {
            // Unknown ids were rejected before the sweep started.
            let row = tb::BENCHMARKS
                .iter()
                .find(|row| [row.seq_id, row.par_id].contains(&id))
                .unwrap_or_else(|| unreachable!("target {id} validated before the sweep"));
            print_figure(if id == row.seq_id {
                tb::seq_figure(row, scale)
            } else {
                tb::par_figure(row, scale, cores)
            })
        }
    }
}

fn print_figure(fig: tb::Figure) -> Output {
    println!("{}", fig.to_table());
    Output::Figure(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb::Row;
    use Limit::{AtLeast, AtMost};

    #[test]
    fn limit_gives_each_target_its_constant() {
        // `r`'s `metric`, stated against another reading of `r`.
        let stated = |r: Row, metric| {
            let of = r.reads("ref", 1.0);
            r.reads(metric, 1.0).against(&of)
        };
        let cases: [(Row, usize, Option<Limit>); 25] = [
            // ablate-stride: the default stride only.
            (
                stated(
                    Row::new("ablate-stride", "heat1d", "avx2", "s=10*r"),
                    "Mupd/s",
                ),
                1,
                Some(AtLeast(DEFAULT_STRIDE_FLOOR)),
            ),
            (
                stated(
                    Row::new("ablate-stride", "heat1d", "avx2", "s=9r"),
                    "Mupd/s",
                ),
                1,
                None,
            ),
            // ablate-boundary: the point-update ratio, Gauss-Seidel tighter.
            (
                stated(
                    Row::new("ablate-boundary", "heat2d", "avx2", "64x64x1"),
                    "boundary ns/u",
                ),
                1,
                Some(AtMost(BOUNDARY_RATIO_LIMIT[0])),
            ),
            (
                stated(
                    Row::new("ablate-boundary", "gs3d", "avx2", "16x16x16"),
                    "boundary ns/u",
                ),
                1,
                Some(AtMost(BOUNDARY_RATIO_LIMIT[1])),
            ),
            (
                stated(
                    Row::new("ablate-boundary", "gs3d", "avx2", "16x16x16"),
                    "boundary µs",
                ),
                1,
                None,
            ),
            // The 1-D sweep's rows: LCS takes the Jacobi limit.
            (
                stated(
                    Row::new("ablate-boundary", "heat1d", "avx512", "512"),
                    "boundary ns/u",
                ),
                1,
                Some(AtMost(BOUNDARY_RATIO_LIMIT[0])),
            ),
            (
                stated(
                    Row::new("ablate-boundary", "gs1d", "avx2", "512"),
                    "boundary ns/u",
                ),
                1,
                Some(AtMost(BOUNDARY_RATIO_LIMIT[1])),
            ),
            (
                stated(
                    Row::new("ablate-boundary", "lcs", "avx512", "1024x1024"),
                    "boundary ns/u",
                ),
                1,
                Some(AtMost(BOUNDARY_RATIO_LIMIT[0])),
            ),
            // ablate-tiling: one thread tiled, where a second core exists.
            (
                stated(
                    Row::new("ablate-tiling", "heat2d", "avx2", "block 64"),
                    "tiled-1t µs",
                ),
                2,
                Some(AtMost(TILING_OVERHEAD_LIMIT)),
            ),
            (
                stated(
                    Row::new("ablate-tiling", "heat2d", "avx2", "block 64"),
                    "tiled-1t µs",
                ),
                1,
                None,
            ),
            (
                stated(
                    Row::new("ablate-tiling", "heat2d", "avx2", "block 64"),
                    "tiled-2t µs",
                ),
                2,
                None,
            ),
            // ablate-digest: the served `Grid1`'s digest only ...
            (
                stated(
                    Row::new("ablate-digest", "Grid1", "-", "4096"),
                    "digest MiB/s",
                ),
                1,
                Some(AtLeast(DIGEST_LANES_FLOOR)),
            ),
            (
                stated(
                    Row::new("ablate-digest", "Grid2", "-", "64x64"),
                    "digest MiB/s",
                ),
                1,
                None,
            ),
            // ... and the served `Grid1`'s seeded fill.
            (
                stated(
                    Row::new("ablate-digest", "Grid1", "avx512", "32784 B"),
                    "fill MiB/s",
                ),
                1,
                Some(AtLeast(FILL_LANES_FLOOR)),
            ),
            (
                stated(
                    Row::new("ablate-digest", "Lcs", "avx512", "32768 B"),
                    "fill MiB/s",
                ),
                1,
                None,
            ),
            // ablate-rows: L1 and ledger pairs, the width sweep.
            (
                stated(
                    Row::new("ablate-rows", "heat2d", "avx2", "L1 64x128x1"),
                    "c/v",
                ),
                1,
                Some(AtMost(1.65)),
            ),
            (
                stated(
                    Row::new("ablate-rows", "gs3d", "avx2", "ledger 40x40x40"),
                    "c/v",
                ),
                1,
                Some(AtMost(2.0)),
            ),
            (
                stated(
                    Row::new("ablate-rows", "heat2d", "avx512", "L1 64x128x1"),
                    "c/v",
                ),
                1,
                None,
            ),
            (
                stated(
                    Row::new("ablate-rows", "heat2d", "avx2", "width 16x128x1 ring 5 KB"),
                    "c/v",
                ),
                1,
                Some(AtMost(WIDTH_LIMIT)),
            ),
            (
                Row::new("ablate-rows", "heat2d", "avx2", "port bound").reads("c/v", 1.0),
                1,
                None,
            ),
            // ablate-vl: default-plan gains per kind, crossover shapes.
            (
                stated(
                    Row::new("ablate-vl", "gs1d", "avx512", "default plans"),
                    "Mupd/s",
                ),
                1,
                Some(AtLeast(vl_gain_floor("gs1d"))),
            ),
            (
                stated(
                    Row::new("ablate-vl", "heat1d", "avx512", "default plans"),
                    "Mupd/s",
                ),
                1,
                Some(AtLeast(1.1)),
            ),
            (
                stated(
                    Row::new("ablate-vl", "heat1d", "avx2", "128 x 32"),
                    "Mupd/s",
                ),
                1,
                Some(AtLeast(1.0 / VL_SHAPE_MARGIN)),
            ),
            (
                Row::new("ablate-vl", "heat1d", "avx512", "128 x 32").reads("Mupd/s", 1.0),
                1,
                None,
            ),
            (
                stated(
                    Row::new("ablate-vl", "heat1d", "model", "128 x 32"),
                    "Mupd/s",
                ),
                1,
                None,
            ),
        ];
        for (r, cores, want) in cases {
            assert_eq!(limit(&r, cores), want, "{r:?} on {cores} cores");
        }
    }
}
