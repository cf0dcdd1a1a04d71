"""Acceptance gate: every documented result check, one test line each.

Each check is exact rational arithmetic end to end, so there is no
tolerance anywhere; a check either reproduces its value or fails.  The
per-check wall-clock limits are asserted too.  Gated long jobs run only
with MATCHFORGE_FULL=1 in the environment.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matchforge
from matchforge.errors import Budget
from matchforge.reproduce import CHECKS, run_checks

DEFAULT_CHECKS = [c for c in CHECKS if not c.gated]
GATED_CHECKS = [c for c in CHECKS if c.gated]
RUN_GATED = os.environ.get("MATCHFORGE_FULL") == "1"


@pytest.mark.parametrize(
    "check", DEFAULT_CHECKS, ids=[c.check_id for c in DEFAULT_CHECKS]
)
def test_criterion(check):
    t0 = time.perf_counter()
    detail = check.func()  # raises CheckFailed on any mismatch
    elapsed = time.perf_counter() - t0
    assert detail
    assert elapsed <= check.limit, (
        f"{check.label}: {elapsed:.1f}s over the {check.limit:.0f}s limit"
    )


@pytest.mark.parametrize(
    "check", GATED_CHECKS, ids=[c.check_id for c in GATED_CHECKS]
)
@pytest.mark.skipif(not RUN_GATED, reason="gated long job; set MATCHFORGE_FULL=1")
def test_gated_criterion(check):
    assert check.func()


def test_runner_selection_and_stream():
    import io

    stream = io.StringIO()
    outcomes = run_checks(ids=["2", "3"], stream=stream)
    assert [o.check_id for o in outcomes] == ["2", "3"]
    assert all(o.ok for o in outcomes)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("ok  ") for line in lines)


def test_runner_refuses_an_unknown_id_before_any_check():
    import io

    from matchforge.errors import MatchforgeError

    stream = io.StringIO()
    with pytest.raises(MatchforgeError, match="^unknown check ids: 99$"):
        run_checks(ids=["3", "99"], stream=stream)
    assert stream.getvalue() == ""


def test_runner_covers_all_defaults_by_default():
    selected = run_checks(ids=[])  # empty selection runs nothing
    assert selected == []
    assert [c.check_id for c in DEFAULT_CHECKS] == [
        "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
    ]


def test_runner_reports_a_failed_self_check(monkeypatch):
    from matchforge import reproduce
    from matchforge.errors import InternalError

    def broken() -> str:
        raise InternalError("self-check failed")

    check = reproduce.Check("x", "broken engine", None, False, broken)
    monkeypatch.setattr(reproduce, "CHECKS", (check,))
    (outcome,) = run_checks(ids=["x"])
    assert not outcome.ok
    assert outcome.detail == "InternalError: self-check failed"


def test_runner_fails_a_check_past_its_limit(monkeypatch):
    import io

    from matchforge import reproduce

    def slow() -> str:
        time.sleep(0.001)
        return "value reproduced"

    check = reproduce.Check("x", "slow check", 0.0, False, slow)
    monkeypatch.setattr(reproduce, "CHECKS", (check,))
    stream = io.StringIO()
    (outcome,) = run_checks(ids=["x"], stream=stream)
    assert not outcome.ok
    assert outcome.detail == "value reproduced [exceeded 0s limit]"
    assert outcome.limit == 0.0 and outcome.seconds > 0.0
    assert stream.getvalue().startswith("FAIL [        x] slow check: value reproduced [")


def test_runner_selects_the_default_checks_or_all_of_them(monkeypatch):
    from matchforge import reproduce

    checks = tuple(
        reproduce.Check(str(i), f"check {i}", None, gated, lambda: "ok")
        for i, gated in enumerate([False, True, False, True])
    )
    monkeypatch.setattr(reproduce, "CHECKS", checks)
    assert [o.check_id for o in run_checks()] == ["0", "2"]
    assert [o.check_id for o in run_checks(include_gated=True)] == ["0", "1", "2", "3"]
    assert all(o.ok and o.detail == "ok" for o in run_checks(include_gated=True))


def test_runner_reports_a_classifier_out_of_budget(monkeypatch):
    # a stopped search is a failed check, not an abort of the whole run
    from matchforge import reproduce

    real = reproduce.tait_coloring
    stingy = Budget(search_nodes=5)
    monkeypatch.setattr(reproduce, "tait_coloring", lambda g, **kw: real(g, budget=stingy))
    (outcome,) = run_checks(ids=["9"])
    assert not outcome.ok
    assert outcome.detail.startswith("BudgetExceeded: search budget exhausted")


SABOTAGE = """
import sys
from dataclasses import replace
from fractions import Fraction
from matchforge import cli, reproduce

real = reproduce.eta_exact
reproduce.eta_exact = lambda g, **kw: replace(real(g, **kw), value=Fraction(1, 4))
sys.exit(cli.main(["reproduce", "--only", "1"]))
"""


def test_checks_survive_python_optimize():
    # under -O every assert is stripped; check 1 must still see eta 1/4
    src = str(Path(matchforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    (outcome,) = json.loads(proc.stdout)["checks"]
    assert not outcome["ok"] and outcome["detail"] == "CheckFailed: eta 1/4"


def test_no_module_relies_on_assert():
    # python -O strips assert statements, so no engine check may be one
    package = Path(matchforge.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


# Searches that go one level deeper per step.  The colouring and cycle
# searches step per edge and per vertex: gp(400, 1) has 1200 edges and
# 800 vertices.  The two enumerations step per matched pair: gp(1100, 1)
# has 2200 vertices, and count budgets of 1 stop each at its second
# matching (10^5 perfect matchings of 1100 edges each would take
# gigabytes).
DEEP_SEARCHES = {
    "classify": ["classify", "gp:400,1"],
    "berge-witness": [
        "eta", "witness", "gp:1100,1", "--kind", "berge",
        "--vertex-limit", "3000", "--perfect-count", "1",
    ],
    "bounds": [
        "eta", "bounds", "gp:1100,1", "--vertex-limit", "3000",
        "--perfect-count", "1", "--maximal-count", "1",
    ],
}


def test_independent_witness_search_stops_at_its_node_budget():
    # every leaf of this search runs a blossom on about 1,200 vertices;
    # with the default budget it ran past 60 s
    src = str(Path(matchforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [
        "eta", "witness", "gp:1100,1", "--kind", "independent",
        "--size", "1000", "--node-budget", "1200",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "matchforge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", DEEP_SEARCHES.values(), ids=DEEP_SEARCHES)
def test_classify_large_prism_ends_without_a_traceback(argv):
    src = str(Path(matchforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "matchforge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0 and argv[0] == "classify":
        doc = json.loads(proc.stdout)
        assert doc["tait_colorable"] is True and doc["hamiltonian"] is True
