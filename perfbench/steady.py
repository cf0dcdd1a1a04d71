#!/usr/bin/env python3
"""Steadiness mode: run the benchmark as its acceptance runs do, twice.

    python3 perfbench/steady.py [--traced]

Each of two sets runs every workload of BENCHMARK.json once per seed for
run_seconds (workloads interleaved, so a slow stretch of the host
spreads over all of them); set 1 uses seeds 1..10, set 2 seeds 11..20.
For every end-to-end metric it prints the median and the quartile
spread as a share of the median, and then how far set 2's median moved
from set 1's, in the metric's "worse" direction.  A spread above the
metric's bound in BENCHMARK.json, a median that worsened by more than
the bound, or an incorrect run makes the exit code 1.

--traced also runs each workload twice with --trace 1 on one seed and
checks that both runs are correct (a traced run checks that its span
self times add up to its traced pass) and that every per-layer metric
whose unit is not seconds repeats exactly.  It prints the sum of the
scaled self times next to trace.wall_s and trace.overhead_s.

Results are written to perfbench/out/steady.json, and each run's
output to perfbench/out/runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2  # the second set is compared with the first


def run_once(workload: str, seed: int, seconds: int, trace: int, log: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    (HERE / "out" / "runs").mkdir(parents=True, exist_ok=True)
    (HERE / "out" / "runs" / f"{log}.log").write_text(proc.stderr + proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def steady(spec: dict, workloads: list[str]) -> tuple[bool, dict]:
    ok = True
    report: dict = {}
    medians: dict = {}
    for k in range(SETS):
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in range(k * SEEDS + 1, (k + 1) * SEEDS + 1):
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"], 0, f"set{k + 1}-{w}-{seed}")
                runs[w].append(r)
                status = "ok" if r["correct"] else "INCORRECT"
                vals = " ".join(f"{n}={v:.4g}" for n, v in r["values"].items())
                print(f"set {k + 1} {w:<12} seed {seed:>3} {status} {vals}", flush=True)
                ok &= r["correct"]
        for w in workloads:
            for m in spec["end_to_end"]:
                name = m["name"]
                med, share = spread([r["values"][name] for r in runs[w]])
                entry = report.setdefault(w, {}).setdefault(name, {"medians": [], "spreads": []})
                entry["medians"].append(med)
                entry["spreads"].append(share)
                bad = share > m["bound"]
                ok &= not bad
                print(
                    f"set {k + 1} {w:<12} {name:<12} median {med:.6g} spread {share:.3f}"
                    f" (bound {m['bound']}, third {m['bound'] / 3:.3f}){'  OVER BOUND' if bad else ''}"
                )
                medians.setdefault((w, name), []).append(med)
    for (w, name), (first, second) in medians.items():
        m = next(m for m in spec["end_to_end"] if m["name"] == name)
        change = worse_by(m, first, second)
        bad = change > m["bound"]
        ok &= not bad
        report[w][name]["worse_by"] = change
        print(
            f"set 2 vs 1 {w:<12} {name:<12} worse by {change:+.3f}"
            f" (bound {m['bound']}){'  OVER BOUND' if bad else ''}"
        )
    return ok, report


def traced(spec: dict, workloads: list[str]) -> tuple[bool, dict]:
    ok = True
    report = {}
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    for w in workloads:
        a, b = (run_once(w, 1, 1, 1, f"traced{i}-{w}") for i in (1, 2))
        ok &= a["correct"] and b["correct"]
        differ = [n for n in exact if a["values"][n] != b["values"][n]]
        ok &= not differ
        sums = []
        for r in (a, b):
            v = r["values"]
            self_sum = sum(x for n, x in v.items() if n.endswith(".self_s"))
            sums.append((self_sum, v["trace.wall_s"], v["trace.overhead_s"]))
        report[w] = {"correct": [a["correct"], b["correct"]], "counts_differ": differ,
                     "self_sum_wall_overhead": sums}
        print(f"traced {w:<12} correct {a['correct']} {b['correct']} counts differ: {differ or 'none'}")
        for self_sum, wall, overhead in sums:
            print(
                f"traced {w:<12} sum self_s {self_sum:.4f} wall {wall:.4f}"
                f" gap {self_sum - wall:+.4f} overhead {overhead:+.4f}"
            )
    return ok, report


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    ok, report = steady(spec, workloads)
    if args.traced:
        traced_ok, report["traced"] = traced(spec, workloads)
        ok &= traced_ok
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
