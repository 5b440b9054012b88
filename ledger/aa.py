#!/usr/bin/env python3
"""A/A check of the benchmark: run identical code several times and see
whether the end-to-end metrics repeat within their own bounds.

    python3 ledger/aa.py [--sets 3] [--runs 10] [--replay LOG]

Run from the repository root. Reads `BENCHMARK.json` and runs its command
`sets x runs` times per workload in the driver's order: the runs of one
workload back to back, each with another seed, one set straight after the
other. Prints for every workload and end-to-end metric each set's median,
quartiles and spread (distance between the quartiles of
`statistics.quantiles(values, n=4)` as a share of the median) and the largest
deviation between two set medians, then for every metric the bound the data
ask for:

    max(3 %, 1.5 x largest set-median deviation, 1.5 x widest spread)

over all workloads (`setup_s`: deviations only, as the driver judges it).
The verdict is FAIL when a run failed, when a spread or a deviation exceeds the
metric's bound in `BENCHMARK.json` (what the driver rejects), or when the bound
the data ask for exceeds the committed one (the bound was not set by the
data). A spread above a third of its bound is marked WIDE and is not a
failure. `--replay LOG` re-reads the `# set ...` lines of an earlier output
instead of running, to judge the same runs against the bounds now in
`BENCHMARK.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, wall
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, wall
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=3)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--replay", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    # values[workload][metric][set] = [run values]
    values = {w: {m["name"]: [[] for _ in range(args.sets)] for m in metrics}
              for w in workloads}
    bad_runs = 0
    walls = []
    replayed = open(args.replay).read().splitlines() if args.replay else []
    for line in replayed:
        part = line.split()
        if part[:2] == ["#", "set"] and part[3] in values and int(part[2]) < args.sets:
            walls.append(float(part[6].rstrip("s")))
            for name, v in (kv.split("=") for kv in part[7:]):
                if name in values[part[3]]:
                    values[part[3]][name][int(part[2])].append(float(v))
            print(line)
        bad_runs += line.startswith("# FAILED RUN")
    for w in [] if args.replay else workloads:
        for s in range(args.sets):
            for r in range(args.runs):
                seed = 1000 * (s + 1) + r
                got, wall = run_once(bench["command"], w, seed, seconds)
                walls.append(wall)
                if got is None:
                    bad_runs += 1
                    print(f"# FAILED RUN: {w} seed {seed}", flush=True)
                    continue
                for name, v in got.items():
                    values[w][name][s].append(v)
                print(f"# set {s} {w} seed {seed} {wall:.1f}s " +
                      " ".join(f"{m['name']}={got[m['name']]:.6g}" for m in metrics),
                      flush=True)

    print(f"\n# {args.sets} sets x {args.runs} runs x {len(workloads)} workloads, "
          f"run_seconds {seconds}, wall per run median {statistics.median(walls):.1f}s "
          f"max {max(walls):.1f}s")
    failed = bad_runs > 0
    worst = {m["name"]: (0.0, 0.0) for m in metrics}
    for w in workloads:
        print(f"\n## {w}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [v for v in values[w][name] if len(v) >= 2]
            if not sets:
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = []
            cells = []
            for v, med in zip(sets, medians):
                q1, q3, sp = spread(v)
                # The driver does not judge the spread of `setup_s`.
                spreads.append(0.0 if name == "setup_s" else sp)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {100 * sp:.2f}%")
            dev = (max(medians) - min(medians)) / min(medians)
            flag = "WIDE" if max(spreads) > bound / 3 else ""
            if max(spreads) > bound or dev > bound:
                flag = "FAIL"
                failed = True
            worst[name] = (max(worst[name][0], dev), max(worst[name][1], max(spreads)))
            print(f"{name:<14} " + " | ".join(cells) +
                  f" | max dev {100 * dev:.2f}% | bound {100 * bound:.0f}% {flag}")
    print("\n## bound the data ask for: max(3 %, 1.5 x largest deviation, 1.5 x widest spread)")
    for m in metrics:
        dev, sp = worst[m["name"]]
        asked = max(0.03, 1.5 * dev, 1.5 * sp)
        flag = ""
        if asked > m["bound"]:
            flag = "FAIL: above the committed bound"
            failed = True
        print(f"{m['name']:<14} dev {100 * dev:.2f}%  spread {100 * sp:.2f}%  "
              f"asks {100 * asked:.1f}%  committed {100 * m['bound']:.0f}% {flag}")
    print("\nFAIL" if failed else "\nOK: every end-to-end metric repeats within its bound, "
          "and every bound covers what the data ask for")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
