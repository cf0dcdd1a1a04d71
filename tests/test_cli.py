"""Command line: JSON output, manifests, seeds, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import matchforge
from matchforge import DEFAULT_SEED, __version__, cli
from matchforge.cli import main
from matchforge.errors import Budget
from matchforge.generators import named
from matchforge.graphs import format_edge_list, parse_edge_list
from matchforge.matching import format_weight_csv, parse_weight_csv
from matchforge.mesh import TriangleMesh, icosahedron, off_text

SRC = os.path.dirname(os.path.dirname(matchforge.__file__))


def run_cli(capsys, argv, expect=0):
    code = main(argv)
    out = capsys.readouterr()
    assert code == expect, out.err or out.out
    return json.loads(out.out)


def test_gen_json_and_manifest(capsys):
    doc = run_cli(capsys, ["gen", "name:petersen"])
    assert doc["graph"]["n"] == 10 and doc["graph"]["m"] == 15
    assert doc["flags"]["snark"] is True
    man = doc["manifest"]
    assert man["tool"] == "matchforge"
    assert man["version"] == __version__
    assert man["argv"] == ["gen", "name:petersen"]
    assert man["seed"] == DEFAULT_SEED
    assert man["inputs"] == []
    assert man["elapsed_seconds"] >= 0


def test_gen_out_round_trip(capsys, tmp_path):
    out = tmp_path / "cube.txt"
    run_cli(capsys, ["gen", "name:cube", "--out", str(out)])
    assert parse_edge_list(out.read_text()).edges == named("cube").edges


def test_gen_family_reports_matching(capsys):
    doc = run_cli(capsys, ["gen", "family:1"])
    assert doc["graph"]["n"] == 20
    assert len(doc["distinguished_matching"]) == 6


def test_gen_file_input_hashed(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_cli(capsys, ["gen", "name:k4", "--out", str(path)])
    doc = run_cli(capsys, ["gen", str(path)])
    (entry,) = doc["manifest"]["inputs"]
    assert entry["path"] == str(path)
    assert len(entry["sha256"]) == 64


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("MATCHFORGE_SEED", "7")
    doc = run_cli(capsys, ["gen", "random:10", "--seed", "5"])
    assert doc["manifest"]["seed"] == 5
    doc = run_cli(capsys, ["gen", "random:10"])
    assert doc["manifest"]["seed"] == 7
    monkeypatch.setenv("MATCHFORGE_SEED", "0x10")
    doc = run_cli(capsys, ["gen", "random:10"])
    assert doc["manifest"]["seed"] == 16
    monkeypatch.setenv("MATCHFORGE_SEED", "ten")
    run_cli(capsys, ["gen", "random:10"], expect=2)
    monkeypatch.delenv("MATCHFORGE_SEED")
    doc = run_cli(capsys, ["gen", "random:10"])
    assert doc["manifest"]["seed"] == DEFAULT_SEED


def test_random_graph_reproducible(capsys):
    a = run_cli(capsys, ["gen", "random:12", "--seed", "3"])
    b = run_cli(capsys, ["gen", "random:12", "--seed", "3"])
    assert a["graph"] == b["graph"]


def test_classify_petersen(capsys):
    doc = run_cli(capsys, ["classify", "name:petersen"])
    assert doc["cubic"] and doc["bridgeless"] and doc["snark"]
    assert doc["bipartite"] is False
    assert doc["tait_colorable"] is False
    assert doc["hamiltonian"] is False
    assert doc["search_timeout"] is False


def test_classify_cube_coloring_and_cycle(capsys):
    doc = run_cli(capsys, ["classify", "name:cube"])
    assert doc["tait_colorable"] is True
    assert len(doc["tait_coloring"]) == 12
    cycle = doc["hamiltonian_cycle"]
    assert cycle[0] == 0 and sorted(cycle) == list(range(8))


def test_classify_edgeless_graph_has_the_empty_colouring(capsys, tmp_path):
    path = tmp_path / "edgeless.txt"
    path.write_text("0 0\n")
    doc = run_cli(capsys, ["classify", str(path)])
    assert doc["tait_colorable"] is True
    assert doc["tait_coloring"] == []
    assert doc["snark"] is False


def test_classify_budget_timeout(capsys):
    doc = run_cli(capsys, ["classify", "name:nauru", "--node-budget", "3"])
    assert doc["search_timeout"] is True
    assert doc["tait_colorable"] is None
    assert doc["hamiltonian"] is None


def test_match_with_weight_file(capsys, tmp_path):
    g = named("petersen")
    w = [Fraction(0)] * g.m
    for e in (0, 8, 12):
        w[e] = Fraction(1)
    csv = tmp_path / "w.csv"
    csv.write_text(format_weight_csv(w))
    doc = run_cli(capsys, ["match", "name:petersen", "--weights", str(csv)])
    assert doc["matching"] == [0, 8, 12]
    assert doc["weight"] == {"num": "3", "den": "1"}
    assert doc["saturates_all"] is False
    doc = run_cli(
        capsys, ["match", "name:petersen", "--weights", str(csv), "--perfect"]
    )
    assert doc["size"] == 5
    assert doc["weight"] == {"num": "1", "den": "1"}
    assert doc["saturates_all"] is True


def test_match_no_perfect_matching_exit(capsys, tmp_path):
    path = tmp_path / "twotri.txt"
    path.write_text("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    doc = run_cli(capsys, ["match", str(path), "--perfect"], expect=1)
    assert doc["error"] == "NoPerfectMatching"


def test_eta_exact_petersen(capsys):
    doc = run_cli(capsys, ["eta", "exact", "name:petersen"])
    assert doc["eta"]["value"] == {"num": "1", "den": "3"}
    assert doc["eta"]["argmax_matching"] == [0, 8, 12]
    assert doc["manifest"]["budgets"] == DEFAULT_BUDGETS


def test_eta_exact_budget_refused(capsys):
    doc = run_cli(capsys, ["eta", "exact", "name:nauru"], expect=2)
    assert doc == {
        "error": "BudgetExceeded",
        "message": "24 vertices exceeds the enumeration limit 20",
        "budget": "vertex_limit",
        "limit": 20,
        "reached": 24,
    }
    doc = run_cli(
        capsys,
        ["eta", "exact", "name:petersen", "--maximal-count", "50"],
        expect=2,
    )
    assert doc["error"] == "BudgetExceeded"


def test_eta_bounds_petersen(capsys):
    doc = run_cli(capsys, ["eta", "bounds", "name:petersen"])
    assert doc["lower"]["bound"] == {"num": "1", "den": "3"}
    assert doc["upper"]["bound"] == {"num": "1", "den": "3"}
    assert doc["notes"] == []


# the manifest of a command run without budget flags
DEFAULT_BUDGETS = {
    "vertex_limit": None,
    "perfect_count": 100000,
    "maximal_count": 1000000,
    "search_nodes": 100000000,
    "witness_nodes": 10000000,
}


def test_manifest_records_the_whole_effective_budget(capsys, tmp_path):
    # every field, whichever searches ran: the path graph has a bridge,
    # so eta bounds searches no lower bound, and records the same budget
    path = tmp_path / "path.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    enumeration = ["--vertex-limit", "22", "--perfect-count", "100", "--maximal-count", "10000"]
    flagged = {**DEFAULT_BUDGETS, "vertex_limit": 22, "perfect_count": 100}
    flagged["maximal_count"] = 10000
    for argv in (
        ["eta", "exact", "name:petersen"],
        ["eta", "bounds", str(path)],
        ["eta", "bounds", "name:petersen"],
        ["eta", "witness", "name:petersen", "--kind", "berge"],
    ):
        assert run_cli(capsys, argv)["manifest"]["budgets"] == DEFAULT_BUDGETS, argv
        doc = run_cli(capsys, [*argv, *enumeration])
        assert doc["manifest"]["budgets"] == flagged, argv
    doc = run_cli(capsys, ["classify", "name:petersen"])
    assert doc["manifest"]["budgets"] == DEFAULT_BUDGETS
    doc = run_cli(capsys, ["classify", "name:petersen", "--node-budget", "5000"])
    assert doc["manifest"]["budgets"] == {**DEFAULT_BUDGETS, "search_nodes": 5000}
    witness = ["eta", "witness", "name:petersen", "--kind", "independent", "--size", "4"]
    doc = run_cli(capsys, [*witness, "--node-budget", "50"])
    assert doc["manifest"]["budgets"] == {**DEFAULT_BUDGETS, "witness_nodes": 50}


def test_disjoint_k4s_go_through_every_cubic_command(capsys, tmp_path):
    # cubic and bridgeless but not connected, which no command needs
    pairs = [(a + s, b + s) for s in (0, 4) for a in range(4) for b in range(a + 1, 4)]
    path = tmp_path / "k4k4.txt"
    path.write_text("8 12\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    doc = run_cli(capsys, ["classify", str(path)])
    assert doc["tait_colorable"] is True and doc["snark"] is False
    doc = run_cli(capsys, ["eta", "bounds", str(path)])
    assert doc["notes"] == [] and doc["upper"]["bound"] == {"num": "1", "den": "1"}
    lower = tmp_path / "lower.json"
    lower.write_text(json.dumps(doc["lower"]))
    assert run_cli(capsys, ["cert", "verify", str(path), str(lower)])["reason"] == "ok"
    doc = run_cli(capsys, ["eta", "witness", str(path), "--kind", "berge"])
    assert doc["certificate"] == json.loads(lower.read_text())


def test_eta_bounds_notes_why_the_cover_refused(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    doc = run_cli(capsys, ["eta", "bounds", str(path)])
    assert doc["lower"] is None
    assert doc["notes"] == ["lower bound skipped: graph has a bridge (edge 0)"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "exact", "name:k4", "--maximal-count", "-1"],
        ["eta", "exact", "name:k4", "--perfect-count", "-1"],
        ["eta", "exact", "name:k4", "--vertex-limit", "-1"],
        ["classify", "name:petersen", "--node-budget", "-1"],
        ["eta", "witness", "name:petersen", "--kind", "independent", "--size", "4",
         "--node-budget", "-1"],
    ],
    ids=["maximal-count", "perfect-count", "vertex-limit", "node-budget", "witness-node-budget"],
)
def test_budget_flags_refuse_negative_values(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {argv[-2]}: must be at least 0, got -1" in out.err


def test_node_budget_defaults_are_the_library_values():
    # each command's --node-budget sets its own Budget field
    parser = cli.build_parser()
    assert parser.parse_args(["classify", "g"]).search_nodes == Budget().search_nodes
    args = parser.parse_args(["eta", "witness", "g", "--kind", "independent"])
    assert args.witness_nodes == Budget().witness_nodes


def test_eta_bounds_skips_oversized_scan(capsys):
    doc = run_cli(capsys, ["eta", "bounds", "name:nauru"])
    assert doc["lower"]["bound"] == {"num": "1", "den": "3"}
    assert doc["upper"] is None
    assert any("upper bound skipped" in note for note in doc["notes"])


def test_witness_and_cert_verify_flow(capsys, tmp_path):
    cert = tmp_path / "c.json"
    doc = run_cli(
        capsys,
        ["eta", "witness", "name:cube", "--kind", "cap",
         "--size", "3", "--max-cap", "2", "--cert-out", str(cert)],
    )
    assert doc["certificate"]["kind"] == "cap_upper"
    doc = run_cli(capsys, ["cert", "verify", "name:cube", str(cert)])
    assert doc["valid"] is True and doc["reason"] == "ok"

    data = json.loads(cert.read_text())
    data["cap"] = 1
    cert.write_text(json.dumps(data))
    doc = run_cli(capsys, ["cert", "verify", "name:cube", str(cert)], expect=1)
    assert doc["valid"] is False and "cap" in doc["reason"]


@pytest.mark.parametrize(
    "key, bad",
    [
        ("matching", [0.4, 6.4, 11.4]),
        ("matching", ["0", "6", "11"]),
        ("bound", {"num": 1.9, "den": "3"}),
        ("bound", {"num": 2.9, "den": "3"}),
    ],
    ids=["float-ids", "string-ids", "float-num-1.9", "float-num-2.9"],
)
def test_cert_verify_refuses_numbers_it_would_have_to_round(capsys, tmp_path, key, bad):
    from matchforge import eta

    cert = tmp_path / "c.json"
    data = eta.cert_to_json(eta.maximal_matching_bound(named("cube"), [0, 6, 11]))
    cert.write_text(json.dumps(data))
    assert run_cli(capsys, ["cert", "verify", "name:cube", str(cert)])["valid"] is True
    cert.write_text(json.dumps({**data, key: bad}))
    doc = run_cli(capsys, ["cert", "verify", "name:cube", str(cert)], expect=2)
    assert doc["error"] == "ParseError"


def test_witness_not_found(capsys):
    doc = run_cli(
        capsys,
        ["eta", "witness", "name:petersen", "--kind", "independent",
         "--size", "5"],
        expect=1,
    )
    assert doc["certificate"] is None


@pytest.mark.parametrize(
    "argv",
    [["eta", "bounds"], ["eta", "witness", "--kind", "independent", "--size", "2"]],
    ids=["bounds", "witness"],
)
def test_edgeless_graph_is_a_typed_error(capsys, tmp_path, argv):
    # its only maximal matching is empty, which bounds nothing
    path = tmp_path / "edgeless.txt"
    path.write_text("2 0\n")
    doc = run_cli(capsys, [*argv[:2], str(path), *argv[2:]], expect=2)
    assert doc == {
        "error": "BadParameters",
        "message": "graph has no edges, so eta is undefined",
    }


def test_eta_exact_on_edgeless_graphs(capsys, tmp_path):
    # the 0-vertex graph has a perfect matching, but no edge to weight
    path = tmp_path / "edgeless.txt"
    path.write_text("0 0\n")
    doc = run_cli(capsys, ["eta", "exact", str(path)], expect=2)
    assert doc == {
        "error": "BadParameters",
        "message": "graph has no edges, so eta is undefined",
    }
    path.write_text("2 0\n")
    doc = run_cli(capsys, ["eta", "exact", str(path)], expect=1)
    assert doc["error"] == "NoPerfectMatching"


@pytest.mark.parametrize("n", [3, 0])
def test_cert_verify_rejects_an_empty_matching(capsys, tmp_path, n):
    graph = tmp_path / "edgeless.txt"
    graph.write_text(f"{n} 0\n")
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({
        "kind": "independent_set_upper",
        "bound": {"num": "0", "den": "1"},
        "matching": [],
        "independent_set": list(range(n)),
    }))
    doc = run_cli(capsys, ["cert", "verify", str(graph), str(cert)], expect=1)
    assert doc["valid"] is False
    assert doc["reason"] == "matching field is not a nonempty matching"


def test_witness_odd_kind(capsys):
    doc = run_cli(
        capsys,
        ["eta", "witness", "name:k4", "--kind", "odd", "--edges", "0"],
    )
    assert doc["certificate"]["kind"] == "odd_component_upper"


def test_odd_certificate_flow_on_an_80_vertex_graph(capsys, tmp_path):
    edges = run_cli(capsys, ["gen", "family:3"])["distinguished_matching"]
    cert = tmp_path / "odd.json"
    doc = run_cli(
        capsys,
        ["eta", "witness", "family:3", "--kind", "odd",
         "--edges", ",".join(map(str, edges)), "--cert-out", str(cert)],
    )
    assert doc["certificate"]["bound"] == {"num": "1", "den": "3"}
    doc = run_cli(capsys, ["cert", "verify", "family:3", str(cert)])
    assert doc["valid"] is True and doc["reason"] == "ok"

    data = json.loads(cert.read_text())
    del data["potentials"]  # a certificate file without the dual
    cert.write_text(json.dumps(data))
    doc = run_cli(capsys, ["cert", "verify", "family:3", str(cert)], expect=1)
    assert doc["reason"] == "missing payload"


def test_internal_error_exit_code(capsys, monkeypatch):
    from matchforge import cli
    from matchforge.errors import InternalError

    def broken(*args, **kwargs):
        raise InternalError("self-check failed")

    monkeypatch.setattr(cli, "eta_exact", broken)
    doc = run_cli(capsys, ["eta", "exact", "name:k4"], expect=3)
    assert doc == {"error": "InternalError", "message": "self-check failed"}


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["gen", "name:petersen"], ["eta", "exact", "name:nauru"]], ids=["gen", "error"]
)
def test_closed_stdout_is_a_documented_exit(argv, unbuffered):
    # a reader that closes the pipe at once, as `| head -c 10` may; with
    # buffered stdout the write fails at the last flush, not in json.dump
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "matchforge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_mesh_quadrangulate(capsys, tmp_path):
    off = tmp_path / "ico.off"
    off.write_text(off_text(icosahedron()))
    obj = tmp_path / "ico.obj"
    doc = run_cli(
        capsys, ["mesh", "quadrangulate", str(off), "--out", str(obj)]
    )
    assert doc["report"]["quad_count"] == 10
    assert doc["report"]["triangle_count"] == 0
    assert obj.exists()
    (entry,) = doc["manifest"]["inputs"]
    assert entry["path"] == str(off)


def test_mesh_quadrangulate_builds_one_dual(capsys, tmp_path, monkeypatch):
    from matchforge import mesh

    built = []
    build = mesh._build_dual
    monkeypatch.setattr(mesh, "_build_dual", lambda m: built.append(m) or build(m))
    off = tmp_path / "ico.off"
    off.write_text(off_text(icosahedron()))
    doc = run_cli(capsys, ["mesh", "quadrangulate", str(off), "--random-weights"])
    assert doc["dual"] == {"n": 20, "m": 30}
    assert len(built) == 1


@pytest.mark.parametrize("scale", [1e100, 3.7e150, 1e-100, 1e-150, 1e-300])
def test_mesh_quadrangulate_at_far_scales(capsys, tmp_path, scale):
    ico = icosahedron()
    scaled = TriangleMesh(tuple(tuple(c * scale for c in p) for p in ico.vertices), ico.faces)
    off = tmp_path / "ico.off"
    off.write_text(off_text(scaled))
    # maximum mode merges no face whose quality reads 0
    doc = run_cli(capsys, ["mesh", "quadrangulate", str(off), "--mode", "maximum"])
    assert doc["report"]["quad_count"] == 10
    assert doc["report"]["triangle_count"] == 0
    assert doc["report"]["perfect_weight"] == {"num": "62113", "den": "12500"}


@pytest.mark.parametrize(
    "broken, message",
    [
        ("nan", "vertex line 0: non-finite coordinate"),
        ("inf", "vertex line 0: non-finite coordinate"),
    ],
)
def test_mesh_quadrangulate_rejects_non_finite_input(capsys, tmp_path, broken, message):
    lines = off_text(icosahedron()).splitlines()
    lines[2] = f"0 0 {broken}"  # the first vertex line
    off = tmp_path / "bad.off"
    off.write_text("\n".join(lines) + "\n")
    doc = run_cli(capsys, ["mesh", "quadrangulate", str(off)], expect=2)
    assert doc == {"error": "ParseError", "message": f"{off}: {message}"}


def test_mesh_quadrangulate_rejects_a_truncated_face(capsys, tmp_path):
    lines = off_text(icosahedron()).splitlines()
    lines[-1] = " ".join(lines[-1].split()[:3])  # the last face loses an index
    off = tmp_path / "bad.off"
    off.write_text("\n".join(lines) + "\n")
    doc = run_cli(capsys, ["mesh", "quadrangulate", str(off)], expect=2)
    assert doc == {"error": "ParseError", "message": f"{off}: face line 19: truncated"}


def _ico_with_face_line(line):
    lines = off_text(icosahedron()).splitlines()
    lines[14] = line  # the first face line
    return "\n".join(lines) + "\n"


def _ico_without_last_face():
    ico = icosahedron()
    return off_text(TriangleMesh(ico.vertices, ico.faces[:-1]))


@pytest.mark.parametrize(
    "name, text, error, message",
    [
        ("open.off", _ico_without_last_face(), "NotClosed", "edge (9, 11) lies on 1 faces"),
        ("quad.off", _ico_with_face_line("4 0 1 2 3"), "NotTriangular",
         "face line 0: 4 vertices"),
        ("flat.off", _ico_with_face_line("3 0 0 1"), "Degenerate",
         "face line 0: repeated vertex"),
        ("dup.txt", "4 2\n0 1\n0 1\n", "DuplicateEdge", "edge (0, 1) repeated"),
        ("loop.txt", "3 1\n1 1\n", "SelfLoop", "edge (1, 1)"),
        ("range.txt", "3 1\n0 5\n", "VertexOutOfRange", "edge (0, 5) outside 0..2"),
    ],
    ids=["not-closed", "not-triangular", "degenerate", "duplicate-edge", "self-loop",
         "vertex-out-of-range"],
)
def test_every_error_of_an_input_file_names_the_file(capsys, tmp_path, name, text, error, message):
    path = tmp_path / name
    path.write_text(text)
    argv = ["mesh", "quadrangulate"] if name.endswith(".off") else ["classify"]
    doc = run_cli(capsys, [*argv, str(path)], expect=2)
    assert doc == {"error": error, "message": f"{path}: {message}"}


def test_cert_verify_names_an_edge_list_that_repeats_a_pair(capsys, tmp_path):
    from matchforge import eta

    cert = tmp_path / "cap.json"
    data = eta.cert_to_json(eta.maximal_matching_bound(named("cube"), [0, 6, 11]))
    cert.write_text(json.dumps(data))
    graph = tmp_path / "dup.txt"
    # the cube's edge list with its first pair, 0 1, again at the end
    graph.write_text(format_edge_list(named("cube")).replace("8 12", "8 13", 1) + "0 1\n")
    doc = run_cli(capsys, ["cert", "verify", str(graph), str(cert)], expect=2)
    assert doc == {"error": "DuplicateEdge", "message": f"{graph}: edge (0, 1) repeated"}


def test_mesh_weights_csv(capsys, tmp_path):
    off = tmp_path / "ico.off"
    off.write_text(off_text(icosahedron()))
    csv = tmp_path / "w.csv"
    run_cli(capsys, ["mesh", "weights", str(off), "--out", str(csv)])
    w = parse_weight_csv(csv.read_text(), 30)
    assert set(w) == {Fraction(62113, 125000)}


def test_reproduce_single_check(capsys):
    doc = run_cli(capsys, ["reproduce", "--only", "3"])
    assert doc["all_ok"] is True
    (check,) = doc["checks"]
    assert check["id"] == "3" and check["ok"] is True
    assert check["seconds"] <= check["limit_seconds"]


def test_reproduce_refuses_an_unknown_id_alone(capsys):
    doc = run_cli(capsys, ["reproduce", "--only", "99"], expect=2)
    assert doc == {"error": "MatchforgeError", "message": "unknown check ids: 99"}


def test_reproduce_unknown_check_id(capsys):
    doc = run_cli(capsys, ["reproduce", "--only", "3,99"], expect=2)
    assert doc["error"] == "MatchforgeError"
    assert "99" in doc["message"]


def test_malformed_gp_spec(capsys):
    doc = run_cli(capsys, ["gen", "gp:5"], expect=2)
    assert doc["error"] == "MatchforgeError"
    assert "gp:<n>,<k>" in doc["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "family:x"], "expected family:<depth>, got 'family:x'"),
        (["gen", "random:x"], "expected random:<n>, got 'random:x'"),
        (["gen", "gp:5,x"], "expected gp:<n>,<k>, got 'gp:5,x'"),
        (["eta", "witness", "name:petersen", "--kind", "odd", "--edges", "0,x"],
         "expected --edges <id>,<id>,..., got '0,x'"),
    ],
    ids=["family", "random", "gp", "edges"],
)
def test_malformed_integers_name_the_spec(capsys, argv, message):
    doc = run_cli(capsys, argv, expect=2)
    assert doc == {"error": "MatchforgeError", "message": message}


@pytest.mark.parametrize("spec", ["gp:200000,1", "random:200000", "random:1000000000"])
def test_oversized_generated_graph_is_a_typed_error(capsys, spec):
    doc = run_cli(capsys, ["gen", spec], expect=2)
    assert doc["error"] == "VertexOutOfRange"
    assert doc["message"].endswith("not in 0..65536")


def test_hostile_weight_literal_is_refused(capsys, tmp_path):
    csv = tmp_path / "w.csv"
    csv.write_text("0,1e10000000\n")
    doc = run_cli(capsys, ["match", "name:k4", "--weights", str(csv)], expect=2)
    assert doc == {
        "error": "ParseError",
        "message": f"{csv}: line 1: '1e10000000' is not an integer or num/den",
    }


def test_deeply_nested_certificate_is_refused(capsys, tmp_path):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 200_000 + "]" * 200_000)
    doc = run_cli(capsys, ["cert", "verify", "name:petersen", str(cert)], expect=2)
    assert doc == {
        "error": "ParseError",
        "message": f"{cert}: nested too deeply",
    }


@pytest.mark.parametrize("bad", ["graph", "certificate"])
def test_cert_verify_names_the_malformed_file(capsys, tmp_path, bad):
    from matchforge import eta

    graph = tmp_path / "cube.txt"
    graph.write_text(format_edge_list(named("cube")))
    cert = tmp_path / "cap.json"
    data = eta.cert_to_json(eta.maximal_matching_bound(named("cube"), [0, 6, 11]))
    cert.write_text(json.dumps(data))
    assert run_cli(capsys, ["cert", "verify", str(graph), str(cert)])["valid"] is True
    if bad == "graph":
        graph.write_text("8 12\n0 1\n")  # the header promises 12 edges
        message = f"{graph}: header says 12 edges, found 1"
    else:
        cert.write_text('{"kind": "cap_upper", "color": 1}')
        message = f"{cert}: malformed certificate: unknown keys ['color']"
    doc = run_cli(capsys, ["cert", "verify", str(graph), str(cert)], expect=2)
    assert doc == {"error": "ParseError", "message": message}


def test_certificate_that_is_not_json_is_a_parse_error(capsys, tmp_path):
    cert = tmp_path / "cut.json"
    cert.write_text('{"kind":')
    doc = run_cli(capsys, ["cert", "verify", "name:petersen", str(cert)], expect=2)
    assert doc == {
        "error": "ParseError",
        "message": f"{cert}: not JSON (Expecting value at char 8)",
    }


def test_certificate_number_past_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    cert = tmp_path / "long.json"
    cert.write_text('{"kind": ' + "9" * 5000 + "}")
    doc = run_cli(capsys, ["cert", "verify", "name:petersen", str(cert)], expect=2)
    assert doc == {"error": "ParseError", "message": f"{cert}: a number with too many digits"}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cert.json", ["cert", "verify", "name:petersen"]),
        ("graph.txt", ["classify"]),
        ("mesh.off", ["mesh", "quadrangulate"]),
    ],
    ids=["certificate", "edge-list", "off"],
)
def test_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, name, argv):
    path = tmp_path / name
    path.write_bytes(b"\xff" + b"4 6\n")
    doc = run_cli(capsys, [*argv, str(path)], expect=2)
    assert doc == {
        "error": "ParseError",
        "message": f"{path}: not UTF-8 text (invalid start byte at byte 0)",
    }


def test_unknown_label_error_json(capsys):
    doc = run_cli(capsys, ["gen", "name:nosuch"], expect=2)
    assert doc["error"] == "UnknownLabel"
    assert "nosuch" in doc["message"]


def test_missing_file_error(capsys, tmp_path):
    doc = run_cli(capsys, ["classify", str(tmp_path / "absent.txt")], expect=2)
    assert doc["error"] in ("FileNotFoundError", "OSError")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def _json_documents(capsys, tmp_path):
    """The JSON the library and the CLI write, one document at a time:
    cert_to_json of the certify benchmark's cap, odd and independent
    certificates and of best_maximal_matching_bound on catalog(20),
    encode(eta_exact(g)) on catalog(20), and the stdout of
    gen, eta exact, match, eta bounds, cert verify, mesh quadrangulate
    and mesh weights, cut before the manifest (it holds paths and
    times)."""
    from matchforge import eta
    from matchforge.generators import catalog, eta_third_family, odd_component_example

    fam, fam_m = eta_third_family(2)
    odd = odd_component_example()
    certs = [
        eta.cap_certificate(g, eta.find_cap_matching(g, size, max_cap))
        for g, size, max_cap in (
            (named("cube"), 3, 2),
            (named("petersen"), 3, 1),
            (named("blanusa1"), 5, 2),
            (named("blanusa2"), 6, 4),
        )
    ]
    certs += [
        eta.find_independent_set_bound(named("nauru"), 8),
        eta.odd_component_cert(odd, (0, 1)),
        eta.cap_certificate(fam, fam_m),
        eta.odd_component_cert(fam, fam_m),
    ]
    for cert in certs:
        yield json.dumps(eta.cert_to_json(cert))
    for g in catalog(20):
        yield json.dumps(eta.cert_to_json(eta.best_maximal_matching_bound(g)))
        yield json.dumps(eta.encode(eta.eta_exact(g)))

    def stdout(argv, expect=0):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expect, out
        return out[: out.index(',\n  "manifest": ')]

    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps(eta.cert_to_json(certs[0])))  # the cube's cap (0, 6, 11)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(cap.read_text().replace('"cap": 2', '"cap": 1'))
    ico = icosahedron()
    jittered = TriangleMesh(
        tuple(tuple(c * (1 + 0.013 * ((3 * i + j) % 7)) for j, c in enumerate(p))
              for i, p in enumerate(ico.vertices)),
        ico.faces,
    )
    off = tmp_path / "jittered.off"
    off.write_text(off_text(jittered))
    zeros = tmp_path / "zeros.csv"
    zeros.write_text(format_weight_csv([0] * 30))
    yield stdout(["gen", "name:petersen"])
    yield stdout(["gen", "family:1"])
    yield stdout(["eta", "exact", "name:blanusa1"])
    weighted = ["match", "name:petersen", "--random-weights", "--seed", "3"]
    yield stdout(weighted)
    yield stdout([*weighted, "--perfect"])
    yield stdout(["eta", "bounds", "name:petersen"])
    yield stdout(["cert", "verify", "name:cube", str(cap)])
    yield stdout(["cert", "verify", "name:cube", str(tampered)], expect=1)
    for mode in ("perfect", "maximum"):
        quadrangulate = ["mesh", "quadrangulate", str(off), "--mode", mode]
        yield stdout(quadrangulate)
        yield stdout([*quadrangulate, "--random-weights"])
        yield stdout([*quadrangulate, "--weights", str(zeros)])
    yield stdout(["mesh", "weights", str(off)])


# Digest of _json_documents, each document followed by a newline,
# computed at commit 24f734a, before the certificate format moved into
# one table and every Fraction into one encoder.
JSON_DOCUMENTS_SHA256 = (
    "651049f00b938ca88edee9cd3c275299d1f9caffbcb2eb36bce2be6a304f8c66"
)


def test_json_documents_match_the_pinned_digest(capsys, tmp_path):
    digest = hashlib.sha256()
    for doc in _json_documents(capsys, tmp_path):
        digest.update(doc.encode() + b"\n")
    assert digest.hexdigest() == JSON_DOCUMENTS_SHA256
