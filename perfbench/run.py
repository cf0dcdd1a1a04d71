#!/usr/bin/env python3
"""matchforge benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload eta-catalog --seed 1 --seconds 25 --trace 0

Run from the repository root (any directory works; paths are taken
from this file's location).  The library is imported from ./src.

--trace 0 times the workload's job list and reports the end-to-end
metrics of BENCHMARK.json: set-up time (median of several imports plus
input generations), wall time of one pass (the sum over jobs of each
job's median time, jobs repeated round-robin while --seconds lasts),
peak resident memory, and the share of job runs that passed their
checks.  --trace 1 runs one untraced pass and one traced pass and
reports the per-layer metrics; its spans go to perfbench/out/.

Every job output is checked outside the timed region.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the library or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from checks import CheckFailed
from probe import MARGIN, SpeedProbe
from spans import Tracer
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matchforge"
OUT_DIR = ROOT / "perfbench" / "out"
LIB_MODULES = ("graphs", "matching", "generators", "eta", "mesh")
SETUP_REPEATS = 25
# largest share of the traced pass that may lie outside the job spans
TRACE_SLACK = 0.01


def forget_library() -> None:
    """Drop the imported library and collect it, so that the next setup()
    imports it afresh and starts from the same heap."""
    for key in [k for k in sys.modules if k == "matchforge" or k.startswith("matchforge.")]:
        del sys.modules[key]
    gc.collect()


def setup(workload: str, seed: int) -> list:
    """Import of the library plus the workload's inputs."""
    mf = SimpleNamespace(
        **{m: importlib.import_module(f"matchforge.{m}") for m in LIB_MODULES}
    )
    return build(workload, mf, seed)


def plain(run) -> tuple[object, float]:
    start = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # a failed job is counted, not fatal
        out = exc
    return out, time.perf_counter() - start


class Checker:
    """Checks each job's first output in full and later ones against it."""

    def __init__(self):
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, job, out) -> None:
        reason = self._reason(job, out)
        self.require(reason is None, f"{job.name}: {reason}")

    def require(self, ok: bool, failure: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)

    def _reason(self, job, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        if job.name in self.first:
            if out != self.first[job.name]:
                return "output differs from the job's first, checked output"
            return None
        try:
            job.check(out)
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # a check that cannot run is a failure
            return f"check raised {type(exc).__name__}: {exc}"
        self.first[job.name] = out
        return None


def timed(jobs, checker: Checker, seconds: float, probe: SpeedProbe) -> dict[str, list[float]]:
    """One full pass, then round-robin repeats of every job that still
    fits before the deadline.  Returns each job's times, scaled by the
    speed probe."""
    deadline = time.perf_counter() + seconds
    readings: dict[str, list] = {job.name: [] for job in jobs}
    raw: dict[str, list[float]] = {job.name: [] for job in jobs}

    def execute(job) -> None:
        begin = probe.clock()
        out, took = plain(job.run)
        readings[job.name].append((begin, probe.clock()))
        raw[job.name].append(took)
        checker(job, out)

    for job in jobs:
        execute(job)
    ran = True
    while ran:
        ran = False
        for job in jobs:
            if time.perf_counter() + statistics.median(raw[job.name]) <= deadline:
                execute(job)
                ran = True
    time.sleep(MARGIN)  # let the probe cover the last job's far side
    return {
        name: [probe.scaled(begin, end) for begin, end in pairs]
        for name, pairs in readings.items()
    }


def lines_of_code(module: str | None) -> int:
    files = sorted(PACKAGE.rglob("*.py")) if module is None else [PACKAGE / f"{module}.py"]
    count = 0
    for path in files:
        if path.is_file():
            for line in path.read_text().splitlines():
                stripped = line.strip()
                count += bool(stripped) and not stripped.startswith("#")
    return count


def traced(workload: str, seed: int, checker: Checker) -> dict[str, float]:
    """One untraced and one traced pass, both scaled by the speed probe.
    Spans are timed on a clock that excludes probe time, and each job's
    spans are scaled by the host speed over that job."""
    with SpeedProbe() as probe:
        jobs = setup(workload, seed)
        start = probe.clock()
        plain_results = [plain(job.run) for job in jobs]
        middle = probe.clock()
        tracer = Tracer(clock=probe.work_time)
        tracer.install()
        traced_results, job_clocks = [], []
        try:
            begin_pass = probe.clock()
            for job in jobs:
                begin = probe.clock()
                traced_results.append(tracer.job(job.run))
                job_clocks.append((begin, probe.clock()))
            end = probe.clock()
        finally:
            tracer.uninstall()
        time.sleep(MARGIN)  # let the probe cover the far side of the pass
        untraced_wall = probe.scaled(start, middle)
        wall = probe.scaled(begin_pass, end)
        job_scales = [probe.speed(b, e) for b, e in job_clocks]
    for results in (plain_results, traced_results):
        for job, (out, _) in zip(jobs, results):
            checker(job, out)
    # Self times add up to the job spans, which lie inside the pass; the
    # rest of the pass is the loop around the jobs.  A span that is
    # counted twice, or never closed, shows as a gap outside these limits.
    pass_work = SpeedProbe.work(begin_pass, end)
    outside = pass_work - tracer.self_seconds()
    checker.require(
        0 <= outside <= TRACE_SLACK * pass_work,
        f"tracer: spans cover {tracer.self_seconds():.6f} s of a {pass_work:.6f} s traced pass",
    )
    print(f"  traced pass outside job spans {outside * 1e3:.3f} ms", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{workload}-{seed}.jsonl"))
    metrics = tracer.summary(job_scales)
    metrics.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.spans": len(tracer.spans),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no library at {PACKAGE} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(PACKAGE.parent))

    checker = Checker()
    if args.trace:
        values = traced(args.workload, args.seed, checker)
        for m in spec["per_layer"]:
            if m["name"].startswith("loc."):
                module = m["name"][4:]
                values[m["name"]] = lines_of_code(None if module == "total" else module)
        # a traced function this workload never calls has zero calls and time
        values = {m["name"]: values.get(m["name"], 0) for m in spec["per_layer"]}
        listed = spec["per_layer"]
    else:
        with SpeedProbe() as probe:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                jobs = None
                forget_library()
                begin = probe.clock()
                jobs = setup(args.workload, args.seed)
                setup_times.append((begin, probe.clock()))
            samples = timed(jobs, checker, args.seconds, probe)
            setup_times = [probe.scaled(begin, end) for begin, end in setup_times]
        for name, s in samples.items():
            print(f"  {name:<28} {statistics.median(s):9.4f} s  x{len(s)}", file=sys.stderr)
        print(f"  mean speed {statistics.mean(probe.speeds):.3f} of reference", file=sys.stderr)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(statistics.median(s) for s in samples.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": 1 - len(checker.failures) / checker.attempted,
        }
        listed = spec["end_to_end"]

    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
