//! `ledger` — the repository's benchmark: five workloads from kernel to
//! client, measured from outside through public API only.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!        [--trace-out <file>] [--smoke]
//! ledger --list | --benchmark-json
//! ```
//!
//! One run is one workload: set-up → warm-up → bitwise verification
//! against the scalar reference (compute) or in-process digests (serve)
//! → the measured phase, with the set-up repeated before and after it
//! (`setup_s` is the 2nd percentile of the repetitions). With
//! `--trace 0` that phase is untraced and yields the end-to-end metrics;
//! with `--trace 1` it is a short untraced phase, a traced phase (spans
//! recorded around each call into a layer, kept in memory, written to
//! `--trace-out` at exit) and the probes of the layers the workload
//! exercises, and yields the per-layer metrics. Every metric is printed
//! as `name value unit`; the last line of standard output is the JSON
//! result the driver reads. Any correctness failure exits non-zero.
//!
//! See `README.md` beside this package for the metric and workload
//! tables, the noise facts behind the design, and the trace format.

mod catalogue;
mod compute;
mod measure;
mod procfs;
mod serve;
mod stats;
mod trace;

use catalogue::{Metrics, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one run of one workload produced.
pub(crate) struct Outcome {
    /// Ops attempted: verification checks, set-up requests and every op
    /// of every phase.
    pub attempted: u64,
    /// Ops that failed: a mismatch with the reference or expected
    /// digest, a `PlanError`, a non-OK reply, an unexpected cache miss.
    pub failed: u64,
    /// The end-to-end or the per-layer table, by `--trace`.
    pub metrics: Metrics,
    wrong: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn new(traced: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::zeroed(if traced {
                catalogue::per_layer()
            } else {
                catalogue::end_to_end()
            }),
            wrong: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Fill in the end-to-end table from the measured phase, the peak
    /// resident set after the warm-up and the repeated set-ups, with a
    /// diagnostic line (`extra` leads it).
    fn end_to_end(
        &mut self,
        phase: &measure::Phase,
        peak_rss_mib: f64,
        setups_s: &[f64],
        extra: String,
    ) {
        let setup_s = stats::quantile(setups_s, measure::FAST);
        self.note(format!(
            "{} ops in {} slices; op_us as measured p02 {:.1} p25 {:.1} p50 {:.1} p99 {:.1}; best slice \
             {:.2} ops/s, cheapest {:.1} cpu_us/op; {extra}sensor p50 {:.1} us, spread {:.3}, \
             other_cpu_share {:.4}, steal_share {:.4}; {} set-ups p02 {setup_s:.6} p50 {:.6} s",
            phase.op_us.len(),
            phase.slices,
            stats::quantile_sorted(&phase.op_us, measure::FAST),
            stats::quantile_sorted(&phase.op_us, 0.25),
            stats::quantile_sorted(&phase.op_us, 0.5),
            stats::quantile_sorted(&phase.op_us, 0.99),
            phase.ops_per_s,
            phase.cpu_us_per_op,
            phase.sensor_p50_us,
            phase.sensor_spread,
            phase.other_cpu_share,
            phase.steal_share,
            setups_s.len(),
            stats::median(setups_s),
        ));
        let m = &mut self.metrics;
        m.set("op_p02_us", phase.op_fast_us);
        m.set("peak_rss_mib", peak_rss_mib);
        m.set("setup_s", setup_s);
    }

    /// Fill in what every traced run reports about itself: throughput
    /// and CPU cost of the untraced phase, the cost of tracing
    /// (`overhead_pct`: the traced phase against the untraced one before
    /// it) and the state of the host during the traced phase.
    fn traced_phase(
        &mut self,
        overhead_pct: f64,
        untraced: &measure::Phase,
        traced: &measure::Phase,
    ) {
        let m = &mut self.metrics;
        m.set("bench.ops_per_s", untraced.ops_per_s);
        m.set("bench.cpu_us_per_op", untraced.cpu_us_per_op);
        m.set("bench.trace_overhead_pct", overhead_pct);
        m.set(
            "bench.clock_x",
            measure::REFERENCE_SENSOR_US / traced.sensor_p50_us,
        );
        m.set("bench.sensor_spread", traced.sensor_spread);
        m.set("bench.other_cpu_share", traced.other_cpu_share);
        m.set("bench.steal_share", traced.steal_share);
    }

    /// Add a diagnostic line (printed as a `#` comment).
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Mark the run incorrect for a reason that is not one failed op.
    fn incorrect(&mut self, why: String) {
        self.wrong.push(why);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.wrong.is_empty()
    }

    /// The JSON object the driver reads from the last line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `set_up`, which returns what it built and the seconds it took,
/// between two sensor readings, and convert the seconds to the reference
/// clock (see [`measure::sensor_us`]).
pub(crate) fn at_reference_clock<T>(
    set_up: impl FnOnce() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let before = measure::sensor_us();
    let (built, seconds) = set_up()?;
    let sensor_us = before.min(measure::sensor_us());
    Ok((built, seconds * measure::to_reference_clock(sensor_us)))
}

/// One of a run's two batches of repeated set-ups: `once` sets up a
/// throw-away instance, tears it down untimed and returns the seconds
/// the set-up took. A batch lasts 1.5 s and at least five repetitions
/// (one `tiled-2t` set-up takes 0.15 s), because an undisturbed set-up
/// is as rare as an undisturbed op: of 50 served set-ups in a disturbed
/// run, one or two are. A traced run reports no `setup_s`, and the smoke
/// tests only need the code reached.
pub(crate) fn repeat_setups(
    traced: bool,
    smoke: bool,
    setups_s: &mut Vec<f64>,
    mut once: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    if traced {
        return Ok(());
    }
    let (at_least, batch) = if smoke {
        (2, Duration::ZERO)
    } else {
        (5, Duration::from_millis(1500))
    };
    let start = Instant::now();
    let mut done = 0;
    while done < at_least || start.elapsed() < batch {
        setups_s.push(once()?);
        done += 1;
    }
    Ok(())
}

/// Write the trace to `path` (tab-separated; see [`trace::Tracer::write_to`]).
pub(crate) fn write_trace(tracer: &trace::Tracer, path: &Path) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|f| tracer.write_to(&mut std::io::BufWriter::new(f)))
        .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))
}

/// One run's arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let run = if args.workload.is_serve() {
        serve::run
    } else {
        compute::run
    };
    run(
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        args.trace_out.as_deref(),
    )
}

const USAGE: &str = "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--trace-out <file>] [--smoke]\n       ledger --list | --benchmark-json";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = f64::from(catalogue::RUN_SECONDS);
    let mut traced = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or(format!("unknown workload {name}; see --list"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        trace_out,
        smoke,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", catalogue::list());
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed {} seconds {} trace {} threads_available {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for why in &outcome.wrong {
        println!("# INCORRECT: {why}");
    }
    for (d, v) in outcome.metrics.iter() {
        println!("{} {v} {}", d.name, d.unit);
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ledger: {}: {} of {} ops failed",
            args.workload.name(),
            outcome.failed,
            outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> Outcome {
        let args = Args {
            workload,
            seed: 7,
            seconds: 1.0,
            traced,
            trace_out: None,
            smoke: true,
        };
        run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    /// Smoke mode: every workload for about a second on shrunken
    /// geometries, both modes, so the benchmark cannot rot unnoticed.
    /// One test, so the workloads do not run on top of each other.
    #[test]
    fn every_workload_smokes_in_both_modes() {
        for workload in Workload::ALL {
            let plain = smoke(workload, false);
            assert!(plain.correct(), "{}: {:?}", workload.name(), plain.wrong);
            assert!(plain.attempted > 10 && plain.failed == 0);
            for (d, v) in plain.metrics.iter() {
                assert!(v > 0.0, "{} {} is {v}", workload.name(), d.name);
            }

            let traced = smoke(workload, true);
            assert!(traced.correct(), "{}: {:?}", workload.name(), traced.wrong);
            let get = |name: &str| traced.metrics.get(name);
            assert!(get("plan.run_fixed_us") > 0.0 && get("plan.build_us") > 0.0);
            // Sibling test threads exit mid-run and take their CPU time
            // out of the process sum, so the cheapest slice can read 0
            // under `cargo test`: only throughput is asserted positive.
            assert!(get("bench.ops_per_s") > 0.0 && get("bench.cpu_us_per_op") >= 0.0);
            assert!(get("bench.clock_x") > 0.0);
            assert!(get("grid.fill_mib_per_s") > 0.0);
            match workload {
                Workload::Jacobi1t => {
                    assert!(get("core.heat1d.x_vs_scalar") > 0.0);
                    assert!(get("core.life.mupd_per_s") > 0.0);
                    assert!(get("simd.reorg_per_vector.heat1d") > 0.0);
                    assert_eq!(get("grid.allocs_per_op"), 0.0);
                    assert_eq!(get("core.lcs.mupd_per_s"), 0.0, "layer not called");
                }
                Workload::GsLcs1t => {
                    assert!(get("core.lcs.x_vs_scalar") > 0.0);
                    assert!(get("simd.reorg_per_vector.gs1d") > 0.0);
                    assert_eq!(get("grid.allocs_per_op"), 0.0);
                }
                Workload::Tiled2t => {
                    assert!(get("tiling.gs2d.x_over_untiled") > 0.0);
                    assert!(get("parallel.lcs.speedup_2t") > 0.0);
                    assert!(get("parallel.dispatch_us") > 0.0);
                    assert_eq!(get("grid.allocs_per_op"), 0.0);
                    assert_eq!(get("server.cache_run_us"), 0.0, "layer not called");
                }
                Workload::ServeHit => {
                    assert!(get("server.hit_rate") >= 0.99);
                    assert!(get("client.wire_us") > 0.0 && get("proto.digest_us") > 0.0);
                    assert!(get("client.run_steps_p99_us") >= get("client.run_steps_p50_us"));
                }
                Workload::ServeChurn => {
                    assert!(get("server.hit_rate") <= 0.05);
                    assert!(get("server.evictions_per_op") > 0.5);
                    assert!(get("server.miss_us") > 0.0);
                }
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(false);
        out.attempted = 12;
        out.metrics.set("op_p02_us", 1.25);
        let json = out.json();
        assert!(json.starts_with(
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"op_p02_us\": \
             {\"value\": 1.25, \"unit\": \"us\"}, "
        ));
        assert!(json.ends_with("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"));
        out.incorrect("hit rate".into());
        assert!(out.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload serve-hit --seed 42 --seconds 18 --trace 1",
        ))
        .expect("the driver's argument list");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Workload::ServeHit, 42, 18.0, true)
        );
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload serve-hit --trace 2")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("--workload serve-hit --seconds 0")).is_err());
    }
}
