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
    # a leader's root offers the edges below its leader, so the leader
    # searches list matchings whose lowest edge is not theirs
    pytest.param(
        "matching.py",
        "if free & ubit and bits & above:",
        "if free & ubit:",
        [str(TESTS / "test_matching.py"), "-k", "test_leader_stream"],
        "test_leader_stream_is_the_stream_filtered_to_leader_masks",
        id="root-edge-bound-dropped",
    ),
    # a new blossom's best edge is the last of equal slacks, not the first
    pytest.param(
        "blossom.py",
        "best, key=lambda k:",
        "reversed(best), key=lambda k:",
        [str(TESTS / "test_blossom.py"), "-k", "test_dense_tie"],
        "test_dense_tie_decisions_match_the_pinned_digest",
        id="last-of-equal-slacks",
    ),
    # the walk to the base starts on the wrong side of the blossom
    pytest.param(
        "blossom.py",
        "if i & 1:",
        "if not i & 1:",
        [str(TESTS / "test_acceptance.py"), "-k", "test_criterion"],
        "IndexError",
        id="wrong-start-parity",
    ),
    # the forest replay takes a step that ties another candidate, or
    # type 1, as if it were the unique least
    pytest.param(
        "blossom.py",
        "if first[0] >= (min(one",
        "if first[0] > (min(one",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="equal-keys-as-unique-minimum",
    ),
    # the forest replay walks a T vertex up through its first tight S
    # neighbour, though the scan order picks its parent among several
    pytest.param(
        "blossom.py",
        "if len(ups) != 1:",
        "if not ups:",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="one-tight-parent-check-dropped",
    ),
    # the forest replay hands back with the duals of its last step, not
    # those the stage started from
    pytest.param(
        "blossom.py",
        "dualvar[:] = start",
        "del start",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="hand-back-keeps-the-step-duals",
    ),
    # a T label edge leaves from the T vertex's own mate, so the cycle
    # walk of the next blossom returns to where it started: an
    # InternalError, not a walk that grows its lists until memory ends
    pytest.param(
        "blossom.py",
        "if lbw == 0:\n                            assign_label(w, 2, v)",
        "if lbw == 0:\n                            assign_label(w, 2, mate[w])",
        [str(TESTS / "test_blossom.py"), "-k", "test_final_duals"],
        "a cycle path meets itself",
        id="t-label-from-its-mate",
    ),
    # the forest replay's walk up a tree stays where it is: its bound of
    # n steps raises
    pytest.param(
        "blossom.py",
        "s = ups[0]",
        "s = mate[t]",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "a replayed path does not reach its root",
        id="replayed-walk-stands-still",
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
