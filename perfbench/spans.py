"""Outside-in tracing: spans around calls into the library's functions.

Tracer.install wraps each traced function and rebinds the wrapper at
every binding site among the loaded matchforge modules.  eta.py, for
one, imports solve and the matching engines by name, so wrapping only
matchforge.lp.solve would miss every LP that eta runs.  Spans carry a
parent id, stay in memory, and are written out once when the run ends.
No file of the library is edited.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from typing import Callable

# span fields: id, parent id (0 for none), name, start, end, child time, counts
ID, PARENT, NAME, START, END, CHILD, COUNTS = range(7)


def _n_vertices(args, kwargs, result):
    return {"vertices": args[0]}


def _lp_size(args, kwargs, result):
    return {"rows": len(args[0].rows), "vars": args[0].num_vars}


def _found(args, kwargs, result):
    return {"found": len(result)}


def _true(args, kwargs, result):
    return {"true": int(bool(result))}


# (module, function, extra counts taken from the call)
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("blossom", "max_weight_matching_pairs", _n_vertices),
    ("lp", "solve", _lp_size),
    ("graphs", "delete", None),
    ("matching", "enumerate_perfect_matchings", _found),
    ("matching", "enumerate_maximal_matchings", _found),
    ("matching", "max_weight_matching", None),
    ("matching", "max_weight_perfect_matching", None),
    ("matching", "blossom_max_matching", None),
    ("matching", "shift_perfect_matching", None),
    ("matching", "has_perfect_matching", None),
    ("matching", "pm_with_forced_edges", _true),
    ("eta", "eta_exact", None),
    ("eta", "berge_witness", None),
    ("eta", "cap_certificate", None),
    ("eta", "odd_component_cert", None),
    ("eta", "find_cap_matching", None),
    ("eta", "find_independent_set_bound", None),
    ("eta", "verify", None),
    ("mesh", "parse_off", None),
    ("mesh", "dual_graph", None),
    ("mesh", "quad_weights", None),
    ("mesh", "quadrangulate", None),
)

PACKAGE = "matchforge"
JOB = "bench.job"


class Tracer:
    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[list] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._open[-1][ID] if self._open else 0
        span = [len(self.spans) + 1, parent, name, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self._open.append(span)
        span[START] = self.clock()
        return span

    def _end(self, span: list) -> float:
        span[END] = self.clock()
        self._open.pop()
        took = span[END] - span[START]
        if self._open:
            self._open[-1][CHILD] += took
        return took

    def job(self, run: Callable[[], object]) -> tuple[object, float]:
        """Run one job as a root span; returns (result or exception, seconds)."""
        span = self._begin(JOB)
        try:
            out = run()
        except Exception as exc:  # a failed job is counted, not fatal
            out = exc
        return out, self._end(span)

    def _wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, func_name, counts in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:  # removed from the library: its metrics read 0
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counts)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    # -- results -------------------------------------------------------

    def self_seconds(self) -> float:
        """Self times summed over all spans, on the tracer's clock."""
        return sum(s[END] - s[START] - s[CHILD] for s in self.spans)

    def summary(self, job_scales: list[float]) -> dict[str, float]:
        """Per-function calls, self seconds, summed counts and the ratios.
        A span's self time is multiplied by the entry of job_scales that
        belongs to its job; the job spans are taken in order."""
        out: dict[str, float] = defaultdict(int)
        by_id = {s[ID]: s for s in self.spans}
        scale: dict[int, float] = {}  # span id -> its job's scale
        jobs = iter(job_scales)
        has_blossom_child: set[int] = set()
        for s in self.spans:
            name = s[NAME]
            scale[s[ID]] = next(jobs) if s[PARENT] == 0 else scale[s[PARENT]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (s[END] - s[START] - s[CHILD]) * scale[s[ID]]
            for key, value in (s[COUNTS] or {}).items():
                out[f"{name}.{key}"] += value
            parent = by_id.get(s[PARENT])
            if parent is None:
                continue
            if name == "blossom.max_weight_matching_pairs":
                has_blossom_child.add(parent[ID])
            if parent[NAME] == "eta.eta_exact":
                if name == "lp.solve":
                    out["eta.eta_exact.lp_solves"] += 1
                elif name == "matching.enumerate_maximal_matchings":
                    out["eta.eta_exact.maximals"] += (s[COUNTS] or {}).get("found", 0)
        hpm = [s for s in self.spans if s[NAME] == "matching.has_perfect_matching"]
        reached = sum(1 for s in hpm if s[ID] in has_blossom_child)
        out["matching.has_perfect_matching.blossom_ratio"] = _ratio(reached, len(hpm))
        out["matching.pm_with_forced_edges.true_ratio"] = _ratio(
            out.pop("matching.pm_with_forced_edges.true", 0),
            out["matching.pm_with_forced_edges.calls"],
        )
        out["eta.eta_exact.lp_per_maximal"] = _ratio(
            out.pop("eta.eta_exact.lp_solves", 0), out.pop("eta.eta_exact.maximals", 0)
        )
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s[ID],
                            "parent": s[PARENT],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "self": s[END] - s[START] - s[CHILD],
                            "counts": s[COUNTS],
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
