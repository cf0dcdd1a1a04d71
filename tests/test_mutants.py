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
    # the forest replay takes the first of equal keys as the unique least
    pytest.param(
        "blossom.py",
        "if tied and heap[0][0] > tied[0][0]:",
        "if tied and heap[0][0] >= tied[0][0]:",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="equal-keys-as-unique-minimum",
    ),
    # the forest replay replays a tie of S-S edges that share a vertex
    pytest.param(
        "blossom.py",
        " or len(ends) < 2 * len(tied)",
        "",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="shared-vertex-tie-replayed",
    ),
    # the forest replay replays a tie of disjoint S-S edges while a tree
    # holds a T vertex, so two of them can climb into one tree
    pytest.param(
        "blossom.py",
        "(tees or not both_s",
        "(not both_s",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="tie-below-a-t-vertex-replayed",
    ),
    # a T vertex freed by an augmentation keeps its dual minus total
    # instead of its dual
    pytest.param(
        "blossom.py",
        "tees -= 1\n                dualvar[v] += total",
        "tees -= 1",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_hands_back_like_the_stage_loop",
        id="freed-t-vertex-keeps-its-lazy-dual",
    ),
    # the forest replay hands back with the duals of its last step, not
    # those the stage started from
    pytest.param(
        "blossom.py",
        "dualvar[v] -= start if label[v] == 1 else -start",
        "dualvar[v] -= total if label[v] == 1 else -total",
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
        "s, x = parent[t], t",
        "s, x = s, t",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "a replayed path does not reach its root",
        id="replayed-walk-stands-still",
    ),
    # the forest replay records a T vertex's parent as its tree's root,
    # so an augmenting path skips the S-T pairs between them
    pytest.param(
        "blossom.py",
        "parent[x] = s\n",
        "parent[x] = root[s]\n",
        [str(TESTS / "test_blossom.py"), "-k", "test_forest_replay"],
        "test_forest_replay_changes_no_result",
        id="parent-recorded-as-the-root",
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
