"""Mutation gate: each slip below, applied to a copy of src/, must make
a focused test run fail, and fail on its own rather than by the timeout.

A row names a module of the package, a text that occurs in it exactly
once (so the table fails loudly when the code moves), its replacement,
the focused pytest arguments, and a text the failing run must print.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import matchforge

PACKAGE = Path(matchforge.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TIMEOUT = 120

MUTANTS = [
    # the downward walk hands augment_blossom an edge the wrong way round,
    # so its climb starts outside the blossom: an InternalError, not a hang
    pytest.param(
        "blossom.py",
        "lambda j: edges[j - 1][::-1]",
        "lambda j: edges[j - 1]",
        [str(TESTS / "test_acceptance.py"), "-k", "test_criterion"],
        "InternalError",
        id="downward-edge-unreversed",
    ),
]


@pytest.mark.parametrize("module, old, new, args, expected", MUTANTS)
def test_mutant_is_killed(tmp_path, module, old, new, args, expected):
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "matchforge", ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "matchforge" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{module} holds {text.count(old)} copies of the old text"
    path.write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        capture_output=True, text=True, timeout=TIMEOUT, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 0, proc.stdout
    assert expected in proc.stdout, proc.stdout[-2000:]
