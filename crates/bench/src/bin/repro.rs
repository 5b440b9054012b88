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
//!          ablate-boundary (fails when an AVX2 tile's boundary code is
//!          more than 12× slower per update than its steady state),
//!          ablate-tiling (fails when an AVX2 tiled plan takes more than
//!          1.25× its untiled time on one thread),
//!          ablate-digest (fails when `state_digest` runs below 1.5× its
//!          one-chain definition on the served state),
//!          ablate-rows (fails when an AVX2 Jacobi slab row, ring in L1,
//!          takes more cycles per vector than its threshold × its port
//!          bound),
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
const ABLATIONS: [&str; 7] = [
    "ablate-reorg",
    "ablate-stride",
    "ablate-baselines",
    "ablate-boundary",
    "ablate-tiling",
    "ablate-digest",
    "ablate-rows",
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
/// in an AVX2 tile (measured ≈ 4-6 once the boundary phases are compiled
/// for AVX2+FMA, ≈ 20 when they call libm `fma`).
const BOUNDARY_RATIO_LIMIT: f64 = 12.0;

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

/// An AVX2 Jacobi slab row with its ring in L1 may take at most this many
/// times its port bound, in cycles per vector. Measured on the 6-wide
/// host these were chosen on: the cursor rows 1.2–1.4 (Heat-2D), 1.25–1.45
/// (2D9P), 1.55–1.65 (Life), 1.3–1.6 (Heat-3D, whose 40-vector rows pay
/// their cutting once per row); the indexed rows they replaced, with
/// their four to eight bounds checks per vector, 1.8–2.0, 2.0–2.4, 2.3–2.6
/// and 1.8–2.0.
fn steady_row_limit(kind: &str) -> f64 {
    match kind {
        "heat2d" => 1.65,
        "heat3d" => 1.85,
        "box2d" => 1.75,
        _ => 1.95, // life
    }
}

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
            let table = tb::ablate_boundary(scale);
            println!("{}", table.to_table());
            if !tempora_simd::arch::avx2_available() {
                println!("notice: no AVX2+FMA here — portable rows only, ratio check skipped\n");
            }
            let over: Vec<String> = table
                .avx2_rows_over(BOUNDARY_RATIO_LIMIT)
                .iter()
                .map(|r| format!("{} {:.1}", r.kind, r.ratio()))
                .collect();
            Output::Checked {
                json: table.to_json(),
                violation: (!over.is_empty()).then(|| {
                    format!(
                        "boundary/steady ns-per-update ratio over {BOUNDARY_RATIO_LIMIT} in an \
                         AVX2 tile ({}): are the boundary phases still inlined into their \
                         target_feature sandwich?",
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
                if table.avx2_jacobi_rows_over(steady_row_limit).is_empty() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(300));
                table.remeasure(|r| r.over(steady_row_limit(r.kind)));
            }
            println!("{}", table.to_table());
            if !tempora_simd::arch::avx2_available() {
                println!("notice: no AVX2+FMA here — portable rows only, model check skipped\n");
            }
            let over: Vec<String> = table
                .avx2_jacobi_rows_over(steady_row_limit)
                .iter()
                .map(|r| {
                    format!(
                        "{} {:.2} > {}",
                        r.kind,
                        r.l1_vs_model(),
                        steady_row_limit(r.kind)
                    )
                })
                .collect();
            Output::Checked {
                json: table.to_json(),
                violation: (!over.is_empty()).then(|| {
                    format!(
                        "L1-resident cycles per vector over the kind's limit x its port bound \
                         in an AVX2 Jacobi row ({}): does its steady loop carry bounds checks or \
                         stack reloads again (objdump recipe: .claude/skills/verify/SKILL.md)?",
                        over.join(", ")
                    )
                }),
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
