//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--scale K] [--cores N] [--csv DIR] [--json FILE] <target>...
//!
//! targets: table1, fig4a..fig4j, fig5a..fig5h (the sequential and parallel
//!          figure of each Table-1 row; every "our" series runs the plan's
//!          default stride),
//!          ablate-reorg, ablate-baselines,
//!          ablate-stride (fails when an AVX2 kind's default stride runs
//!          below 0.7× its best stride, or when under `auto` on an AVX2
//!          host an accepted stride resolves the portable engine),
//!          ablate-boundary (fails when an AVX2 or AVX-512 tile's boundary
//!          code is more than 12× — Gauss-Seidel: 7× — slower per update
//!          than its steady state),
//!          ablate-tiling (fails when an AVX2 tiled plan takes more than
//!          1.25× its untiled time on one thread),
//!          ablate-digest (fails when `state_digest` runs below 1.5× its
//!          one-chain definition on the served state),
//!          ablate-rows (fails when an AVX2 slab row or an eight-lane
//!          GS-2D one, ring in L1 or at the ledger geometry, takes more
//!          cycles per vector than its threshold × its port bound, or when
//!          a Heat-2D row of 128 … 1024 columns takes more than 1.15× its
//!          engine's L1 reading),
//!          ablate-vl (fails on an AVX-512 host when the eight-lane default
//!          of GS-1D / Heat-1D runs below 1.4× / 1.1× the four-lane one,
//!          when `auto` resolves a ledger problem of a kind with a wider
//!          sweep to another engine than expected, or when on a line of
//!          128 … 4096 points, a square of 16² … 256² or an LCS table of
//!          128² … 8192² it picks the width that runs 1.25× slower; the
//!          same geometry at any --scale),
//!          seq (all sequential), par (all parallel), ablate, all
//! --scale K   divide the paper's problem sizes by K (default 16;
//!             --scale 1 = paper sizes, needs a big machine)
//! --cores N   max worker count for parallel figures (default: all;
//!             clamped to the logical cores actually available)
//! --csv DIR   additionally write each figure as DIR/<id>.csv
//! --json FILE additionally write all figures + machine metadata as one
//!             JSON document (the committed BENCH_*.json baseline format)
//! ```
//!
//! A target that fails (panics, or cannot write its CSV) does not abort
//! the sweep: the error is reported, recorded as `{"id", "error"}` in the
//! JSON document, and the remaining targets still run; the process exits
//! non-zero with a summary of the failed targets at the end.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tempora_bench as tb;

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
            "--paper" => scale = 1,
            "--cores" => cores_requested = parse_count("--cores", it.next()),
            "--csv" => {
                let Some(dir) = it.next() else {
                    usage_error("--csv needs a directory");
                };
                csv_dir = Some(dir);
            }
            "--json" => {
                let Some(path) = it.next() else {
                    usage_error("--json needs a file path");
                };
                json_path = Some(path);
            }
            "--help" | "-h" => {
                // Print the usage block between the doc comment's two
                // ```text fences, so the help text tracks doc edits
                // without hand-maintained line numbers.
                let lines: Vec<&str> = include_str!("repro.rs")
                    .lines()
                    .map(|l| {
                        l.strip_prefix("//! ")
                            .unwrap_or(l.trim_start_matches("//!"))
                    })
                    .collect();
                let fences: Vec<usize> = lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.starts_with("```"))
                    .map(|(i, _)| i)
                    .take(2)
                    .collect();
                let [open, close] = fences[..] else {
                    unreachable!("usage block fences missing from repro.rs docs")
                };
                println!("{}", lines[open + 1..close].join("\n"));
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
    // what the machine actually has, loudly.
    let cores = cores_requested.min(avail);
    if cores < cores_requested {
        eprintln!(
            "repro: --cores {cores_requested} exceeds the {avail} available logical cores; \
             clamping to {cores}"
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
            "{{\"schema\":\"tempora-bench-v1\",\"cores\":{},\"cores_requested\":{},\"cores_effective\":{},\"pinning_supported\":{},\"avx2\":{},\"engine_select\":\"{}\",\"scale\":{},\"figures\":[\n{}\n]}}\n",
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
    /// A JSON entry of its own plus the target's verdict on it: `Some`
    /// fails the target (reported like any other failed target).
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
fn boundary_ratio_limit(row: &tb::BoundaryRow) -> f64 {
    if row.kind.starts_with("gs") {
        7.0
    } else {
        12.0
    }
}

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
/// against 2.1, 1.7–2.3 and 1.96.
fn steady_row_limit(row: &tb::SteadyRowsRow) -> Option<[f64; 2]> {
    match (row.engine, row.kind) {
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
/// 1.8–1.9, whose one-`vfmadd` output chain is what doubling the lanes
/// doubles; Heat-1D 1.2–1.3, bound by its ports rather than a chain).
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

/// Run one target: print its table (or text block) to stdout and return
/// what it produced.
fn run_target(id: &str, scale: usize, cores: usize) -> Output {
    match id {
        "table1" => {
            println!("{}", tb::table1(scale));
            Output::Text
        }
        "ablate-reorg" => {
            println!("{}", tb::ablate_reorg());
            Output::Text
        }
        "ablate-stride" => {
            let table = tb::ablate_stride(scale);
            println!("{}", table.to_table());
            if !tempora_simd::arch::avx2_available() {
                println!("notice: no AVX2+FMA here — portable rows only, default check skipped\n");
            }
            let under: Vec<String> = table
                .avx2_defaults_under(DEFAULT_STRIDE_FLOOR)
                .iter()
                .map(|r| format!("{} s={} {:.2}", r.kind, r.stride, table.vs_best(r)))
                .collect();
            let mut violations = vec![];
            if !under.is_empty() {
                violations.push(format!(
                    "default stride below {DEFAULT_STRIDE_FLOOR} of the best stride on the \
                     AVX2 engine ({}): is the default still one the steady state \
                     specialises, and still on the plateau?",
                    under.join(", ")
                ));
            }
            let portable: Vec<String> = table
                .portable_rows()
                .iter()
                .map(|r| format!("{} s={}", r.kind, r.stride))
                .collect();
            let auto =
                tempora_core::engine::Select::from_env() == tempora_core::engine::Select::Auto;
            if auto && tempora_simd::arch::avx2_available() && !portable.is_empty() {
                violations.push(format!(
                    "accepted stride resolved the portable engine under `auto` on an AVX2 \
                     host ({}): does a kernel's AVX2 sweep refuse a stride its plan accepts?",
                    portable.join(", ")
                ));
            }
            Output::Checked {
                json: table.to_json(),
                violation: (!violations.is_empty()).then(|| violations.join("; ")),
            }
        }
        "ablate-boundary" => {
            let mut table = tb::ablate_boundary(scale);
            for _ in 0..BOUNDARY_RETRIES {
                if table.avx2_rows_over(boundary_ratio_limit).is_empty() {
                    break;
                }
                table.remeasure(|r| r.over(boundary_ratio_limit(r)));
            }
            println!("{}", table.to_table());
            if !tempora_simd::arch::avx2_available() {
                println!("notice: no AVX2+FMA here — portable rows only, ratio check skipped\n");
            }
            let over: Vec<String> = table
                .avx2_rows_over(boundary_ratio_limit)
                .iter()
                .map(|r| {
                    let limit = boundary_ratio_limit(r);
                    format!("{} {} {:.1} > {limit}", r.kind, r.engine, r.ratio())
                })
                .collect();
            Output::Checked {
                json: table.to_json(),
                violation: (!over.is_empty()).then(|| {
                    format!(
                        "boundary/steady ns-per-update ratio over its limit in an AVX2 or \
                         AVX-512 tile ({}): are the boundary phases still inlined into their \
                         target_feature sandwich, and the Gauss-Seidel rows still run four \
                         chains at a time?",
                        over.join(", ")
                    )
                }),
            }
        }
        "ablate-tiling" => {
            let table = tb::ablate_tiling(scale, cores);
            println!("{}", table.to_table());
            let checked = tempora_simd::arch::avx2_available() && cores >= 2;
            if !checked {
                println!("notice: no AVX2+FMA or a single core here — overhead check skipped\n");
            }
            let over: Vec<String> = table
                .avx2_rows_over(TILING_OVERHEAD_LIMIT)
                .iter()
                .map(|r| format!("{} {:.2}", r.kind, r.overhead()))
                .collect();
            Output::Checked {
                json: table.to_json(),
                violation: (checked && !over.is_empty()).then(|| {
                    format!(
                        "tiled one-thread time over {TILING_OVERHEAD_LIMIT}x the untiled plan's \
                         ({}): is a tiled run still nothing but the one-chunk sweeps, cut?",
                        over.join(", ")
                    )
                }),
            }
        }
        "ablate-digest" => {
            let table = tb::ablate_digest();
            println!("{}", table.to_table());
            let served = &table.rows[0];
            Output::Checked {
                json: table.to_json(),
                violation: (served.vs_spec() < DIGEST_LANES_FLOOR).then(|| {
                    format!(
                        "state_digest runs at {:.2}x its one-chain spec on the served {} \
                         (floor {DIGEST_LANES_FLOOR}): are the {} lanes still independent \
                         chains?",
                        served.vs_spec(),
                        served.variant,
                        table.lanes
                    )
                }),
            }
        }
        "ablate-rows" => {
            let mut table = tb::ablate_rows();
            for _ in 0..STEADY_ROW_RETRIES {
                if table.rows_over(steady_row_limit).is_empty()
                    && table.widths_over(WIDTH_LIMIT).is_empty()
                {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(300));
                let over = |r: &tb::SteadyRowsRow| steady_row_limit(r).is_some_and(|l| r.over(l));
                table.remeasure(over, WIDTH_LIMIT);
            }
            println!("{}", table.to_table());
            if !tempora_simd::arch::avx2_available() {
                println!("notice: no AVX2+FMA here — portable rows only, model check skipped\n");
            }
            let over: Vec<String> = table
                .rows_over(steady_row_limit)
                .iter()
                .map(|r| {
                    let [l1, ledger] = steady_row_limit(r).unwrap_or_default();
                    format!(
                        "{} {} L1 {:.2} (limit {l1}), ledger {:.2} (limit {ledger})",
                        r.kind,
                        r.engine,
                        r.l1_vs_model(),
                        r.ledger_vs_model(),
                    )
                })
                .collect();
            let wide: Vec<String> = table
                .widths_over(WIDTH_LIMIT)
                .iter()
                .map(|w| format!("{} {} columns {:.2}", w.engine, w.columns, table.vs_l1(w)))
                .collect();
            let mut violations = vec![];
            if !over.is_empty() {
                violations.push(format!(
                    "cycles per vector over the row's limit x its port bound ({}): does its \
                     steady loop carry bounds checks or stack reloads again, or run its \
                     Gauss-Seidel rows one at a time (objdump recipe: \
                     .claude/skills/verify/SKILL.md)?",
                    over.join(", ")
                ));
            }
            if !wide.is_empty() {
                violations.push(format!(
                    "Heat-2D rows over {WIDTH_LIMIT}x their L1 reading in cycles per vector \
                     ({}): does the steady state still cut wide rows into segments that keep \
                     the ring in L1 (slab::segment_width)?",
                    wide.join(", ")
                ));
            }
            Output::Checked {
                json: table.to_json(),
                violation: (!violations.is_empty()).then(|| violations.join("; ")),
            }
        }
        "ablate-vl" => {
            let table = tb::ablate_vl();
            println!("{}", table.to_table());
            let mut violations = vec![];
            if !tempora_simd::arch::avx512_available() {
                println!("notice: no avx512 here — four-lane rows only, gain check skipped\n");
            } else {
                for kind in ["heat1d", "gs1d"] {
                    let gain = table.default_gain(kind).unwrap_or(0.0);
                    if gain < vl_gain_floor(kind) {
                        violations.push(format!(
                            "{kind}: eight-lane default at {gain:.2}x the four-lane one (floor \
                             {}): is the Zmm sandwich still free of calls, its ring in registers?",
                            vl_gain_floor(kind)
                        ));
                    }
                }
                for r in table.ledger.iter().filter(|r| r.engine != r.expect) {
                    violations.push(format!(
                        "auto resolves {} to {}, not {}",
                        r.problem, r.engine, r.expect
                    ));
                }
                for r in table
                    .shapes
                    .iter()
                    .filter(|r| r.misresolved(VL_SHAPE_MARGIN))
                {
                    violations.push(format!(
                        "auto resolves {} {} x {} to {}, but the wide lanes run {:.2}x the \
                         narrow ones (the kind's KernelSpace::wide_min_nx or lcs::WIDE_MIN_LB \
                         is off its measured crossover)",
                        r.kind,
                        r.nx,
                        r.steps,
                        r.auto,
                        r.gain()
                    ));
                }
            }
            Output::Checked {
                json: table.to_json(),
                violation: (!violations.is_empty()).then(|| violations.join("; ")),
            }
        }
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
