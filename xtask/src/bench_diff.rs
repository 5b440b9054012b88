//! `cargo xtask bench-diff OLD NEW`: compare two sets of `ledger` runs
//! against the bounds the benchmark declares.
//!
//! `OLD` and `NEW` are files of captured `ledger` standard output, any
//! number of runs appended one after the other
//! (`cargo run … --manifest-path ledger/Cargo.toml -- --workload W … >> OLD`).
//! Two kinds of line are read and every other line is skipped: the
//! header each run starts with (`# <workload> seed …`), which names the
//! workload of what follows, and the run's last line, the result object
//! (`{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`).
//! Several runs of one workload are reduced to the median per metric.
//!
//! Names, directions and bounds come from `BENCHMARK.json`, which is only
//! ever read. Every `end_to_end` metric gets a verdict per workload —
//! `better`, `within bound` or `WORSE` (worse than `OLD` by more than its
//! bound) — and a `per_layer` metric present in both files is printed
//! with its ratio and direction for information. The command fails when
//! an end-to-end metric is `WORSE`, when `NEW` fails a larger share of
//! its operations than `OLD`, or when a `NEW` run reports an incorrect
//! result.

use std::collections::BTreeMap;

/// A JSON value, as far as `BENCHMARK.json` and a result line use JSON.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Recursive-descent parser over the bytes of one JSON document.
struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: src.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at != p.src.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }

    fn space(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn want(&mut self, lit: &str) -> Result<(), String> {
        self.space();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.src.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.want(":")?;
                    fields.push((key, self.value()?));
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    self.want(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.want(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .src
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.src[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string without `\u` escapes (neither input uses them).
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.src.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = match self.src.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    };
                    out.push(c);
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// One metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    lower_is_better: bool,
    /// The share by which an end-to-end metric may worsen; `None` for a
    /// per-layer metric.
    bound: Option<f64>,
}

/// What `BENCHMARK.json` declares: workloads in the driver's order, then
/// the end-to-end and the per-layer metrics.
struct Benchmark {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Benchmark {
    fn parse(src: &str) -> Result<Benchmark, String> {
        let doc = Parser::parse(src)?;
        let entries = |key: &str| doc.get(key).map_or(&[][..], Json::arr);
        let workloads = entries("workloads")
            .iter()
            .filter_map(|w| w.get("name")?.str().map(str::to_owned))
            .collect();
        let mut metrics = Vec::new();
        for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
            for m in entries(key) {
                let field = |f: &str| m.get(f).and_then(Json::str);
                let (Some(name), Some(better)) = (field("name"), field("better")) else {
                    return Err(format!("a `{key}` entry lacks `name` or `better`"));
                };
                let bound = m.get("bound").and_then(Json::num);
                if bounded && bound.is_none() {
                    return Err(format!("end-to-end metric `{name}` has no `bound`"));
                }
                metrics.push(Metric {
                    name: name.to_owned(),
                    lower_is_better: better == "lower",
                    bound: bound.filter(|_| bounded),
                });
            }
        }
        Ok(Benchmark { workloads, metrics })
    }
}

/// The runs of one workload in one file.
#[derive(Default)]
struct Runs {
    runs: usize,
    incorrect: usize,
    attempted: f64,
    failed: f64,
    values: BTreeMap<String, Vec<f64>>,
}

impl Runs {
    fn failed_share(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }

    fn median(&self, metric: &str) -> Option<f64> {
        let mut v = self.values.get(metric)?.clone();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        Some(if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        })
    }
}

/// Read one file of captured `ledger` output into runs per workload.
fn parse_runs(src: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    let mut workload: Option<&str> = None;
    for (i, line) in src.lines().enumerate() {
        let mut words = line.split_whitespace();
        if let (Some("#"), Some(name), Some("seed")) = (words.next(), words.next(), words.next()) {
            workload = Some(name);
        } else if line.starts_with("{\"correct\"") {
            let name = workload.ok_or_else(|| {
                format!(
                    "line {}: a result before any `# <workload> seed …` header",
                    i + 1
                )
            })?;
            let doc = Parser::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let count = |key: &str| doc.get(key).and_then(Json::num).unwrap_or(0.0);
            let runs = out.entry(name.to_owned()).or_default();
            runs.runs += 1;
            runs.incorrect += usize::from(doc.get("correct") != Some(&Json::Bool(true)));
            runs.attempted += count("attempted");
            runs.failed += count("failed");
            if let Some(Json::Obj(metrics)) = doc.get("metrics") {
                for (metric, entry) in metrics {
                    if let Some(v) = entry.get("value").and_then(Json::num) {
                        runs.values.entry(metric.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The comparison: the table as text, and whether it holds a regression.
#[derive(Debug)]
pub(crate) struct Diff {
    pub(crate) table: String,
    pub(crate) regressed: bool,
}

/// Compare captured `ledger` output `new` against `old` under the bounds
/// of the `benchmark` document.
pub(crate) fn diff(benchmark: &str, old: &str, new: &str) -> Result<Diff, String> {
    let bench = Benchmark::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let old = parse_runs(old).map_err(|e| format!("OLD: {e}"))?;
    let new = parse_runs(new).map_err(|e| format!("NEW: {e}"))?;
    let mut table = format!(
        "{:<13}{:<38}{:>14}{:>14}{:>8}  verdict\n",
        "workload", "metric", "old", "new", "ratio"
    );
    let mut regressed = false;
    let mut compared = 0;
    for workload in &bench.workloads {
        let (Some(o), Some(n)) = (old.get(workload), new.get(workload)) else {
            continue;
        };
        compared += 1;
        for m in &bench.metrics {
            let (Some(a), Some(b)) = (o.median(&m.name), n.median(&m.name)) else {
                continue;
            };
            if a == 0.0 && b == 0.0 {
                continue; // a layer this workload never calls
            }
            // By how large a share of `old` is `new` worse?
            let worse_by = if m.lower_is_better { b - a } else { a - b } / a.abs();
            let verdict = match m.bound {
                Some(bound) if worse_by > bound => {
                    regressed = true;
                    format!("WORSE (bound {bound})")
                }
                Some(_) if worse_by < 0.0 => "better".to_owned(),
                Some(bound) => format!("within bound ({bound})"),
                None if worse_by < 0.0 => "(better)".to_owned(),
                None if worse_by > 0.0 => "(worse)".to_owned(),
                None => "(same)".to_owned(),
            };
            table.push_str(&format!(
                "{workload:<13}{:<38}{a:>14.4}{b:>14.4}{:>8.3}  {verdict}\n",
                m.name,
                b / a
            ));
        }
        let (fo, fn_) = (o.failed_share(), n.failed_share());
        let failing = fn_ > fo || n.incorrect > 0;
        regressed |= failing;
        table.push_str(&format!(
            "{workload:<13}{:<38}{fo:>14.6}{fn_:>14.6}{:>8}  {} ({} / {} runs, {} incorrect)\n",
            "failed share",
            "",
            if failing { "WORSE" } else { "ok" },
            o.runs,
            n.runs,
            n.incorrect
        ));
    }
    if compared == 0 {
        return Err("OLD and NEW share no workload of BENCHMARK.json".into());
    }
    Ok(Diff { table, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = include_str!("../fixtures/bench/benchmark.json");
    const OLD: &str = include_str!("../fixtures/bench/old.txt");

    #[test]
    fn faster_run_passes_and_names_every_verdict() {
        let d = diff(BENCH, OLD, include_str!("../fixtures/bench/new_better.txt")).unwrap();
        assert!(!d.regressed, "{}", d.table);
        let row = |w: &str, m: &str| {
            d.table
                .lines()
                .find(|l| l.starts_with(w) && l.contains(m))
                .unwrap_or_else(|| panic!("no row {w} {m} in\n{}", d.table))
                .to_owned()
        };
        // OLD holds three jacobi-1t runs: the median (2800), not the
        // outlier, is the base. 2240 / 2800 = 0.800.
        assert!(row("jacobi-1t", "op_p02_us").contains("0.800  better"));
        // 10 % slower set-up is inside the 25 % bound.
        assert!(row("jacobi-1t", "setup_s").contains("1.100  within bound (0.25)"));
        // Per-layer rows are informational, in the metric's direction.
        assert!(row("jacobi-1t", "core.heat1d.mupd_per_s").contains("(better)"));
        assert!(row("serve-hit", "server.cache_run_us").contains("(worse)"));
        // A layer a workload never calls (0 in both files) is left out.
        assert!(!d.table.contains("serve-hit    core.heat1d"));
        assert!(row("serve-hit", "failed share").contains("ok (1 / 1 runs, 0 incorrect)"));
    }

    #[test]
    fn regression_beyond_its_bound_fails() {
        let d = diff(BENCH, OLD, include_str!("../fixtures/bench/new_worse.txt")).unwrap();
        assert!(d.regressed);
        // 16.1 % slower against a 15 % bound; memory within its 16 %.
        assert!(d.table.contains("1.161  WORSE (bound 0.15)"), "{}", d.table);
        assert_eq!(d.table.matches("WORSE").count(), 1, "{}", d.table);
    }

    #[test]
    fn larger_failed_share_or_incorrect_run_fails() {
        let failing = OLD.replace(
            "\"attempted\": 5000, \"failed\": 0",
            "\"attempted\": 5000, \"failed\": 3",
        );
        let d = diff(BENCH, OLD, &failing).unwrap();
        assert!(d.regressed, "{}", d.table);
        let row = d.table.lines().find(|l| l.contains("WORSE")).unwrap();
        assert!(
            row.starts_with("serve-hit") && row.contains("0.000600"),
            "{row}"
        );
        // The same share on both sides is not a regression.
        assert!(!diff(BENCH, &failing, &failing).unwrap().regressed);
        let incorrect = OLD.replacen("{\"correct\": true", "{\"correct\": false", 1);
        assert!(diff(BENCH, OLD, &incorrect).unwrap().regressed);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_pass() {
        let headerless = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n";
        assert!(diff(BENCH, headerless, OLD).unwrap_err().contains("header"));
        assert!(diff(BENCH, OLD, "# nothing seed 1\n")
            .unwrap_err()
            .contains("share no workload"));
        assert!(diff(
            "{\"end_to_end\": [{\"name\": \"x\", \"better\": \"lower\"}]}",
            OLD,
            OLD
        )
        .unwrap_err()
        .contains("no `bound`"));
    }

    #[test]
    fn the_repositorys_benchmark_json_parses() {
        let b = Benchmark::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(b.workloads.len(), 5);
        let bounded = b.metrics.iter().filter(|m| m.bound.is_some()).count();
        assert_eq!(bounded, 3);
        assert!(b.metrics.iter().all(|m| !m.name.is_empty()));
    }
}
